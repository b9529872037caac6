package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/resolve"
	"github.com/paper-repo-growth/go-arxiv/serve"
)

// runDoctor self-checks the stack: each synthetic family resolves through
// a pool with a verified optimal answer, the daemon's HTTP surface
// round-trips a resolve/apply/stats cycle, and duplicate in-flight
// requests coalesce. Exit status is the diagnosis.
func runDoctor(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}

	failures := 0
	check := func(name string, err error) {
		if err != nil {
			failures++
			fmt.Printf("FAIL  %-34s %v\n", name, err)
			return
		}
		fmt.Printf("ok    %s\n", name)
	}

	for _, family := range []string{"dense", "diamond", "chain", "virtual", "conditional", "registry"} {
		check(family+"/pool", checkResolve(family))
	}
	check("daemon/http-roundtrip", checkDaemon())
	check("daemon/coalescing", checkCoalescing())
	check("lazy/coverage", checkLazyCoverage())
	check("pool/routing", checkPoolRouting())
	check("daemon/degraded-mode", checkDegradedMode())
	check("pool/crashloop", checkCrashLoop())

	if failures > 0 {
		return fmt.Errorf("%d check(s) failed", failures)
	}
	fmt.Println("all checks passed")
	return nil
}

// checkResolve resolves a family's root twice (cold, then warm) and
// demands optimal answers and a warm answer-store hit.
func checkResolve(family string) error {
	u, root, err := buildUniverse(family, 8, 4)
	if err != nil {
		return err
	}
	b := resolve.NewPoolResolver(u, 0, resolve.SessionOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := resolve.Request{Roots: []resolve.Root{{Pkg: root}}}
	res, err := b.Resolve(ctx, req)
	if err != nil {
		return err
	}
	if !res.Stats.Optimal || len(res.Picks) == 0 {
		return fmt.Errorf("cold answer not optimal (%d picks)", len(res.Picks))
	}
	res2, err := b.Resolve(ctx, req)
	if err != nil {
		return err
	}
	if res2.Stats.Cost != res.Stats.Cost {
		return fmt.Errorf("warm cost %d != cold cost %d", res2.Stats.Cost, res.Stats.Cost)
	}
	if !res2.Stats.SolutionCacheHit || res2.Config != res.Config {
		return fmt.Errorf("warm repeat: hit %v by %s, want a hit naming %s", res2.Stats.SolutionCacheHit, res2.Config, res.Config)
	}
	return nil
}

// checkLazyCoverage serves a registry-family universe through a
// single-session pool and demands (a) the answer is optimal, (b) the
// solver carries only the reached subgraph — the encoder counters
// /v1/stats exposes for the shard must show materialized packages
// strictly below the universe size.
func checkLazyCoverage() error {
	u, root, _ := buildUniverse("registry", 2000, 12)
	b := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})
	ts := httptest.NewServer(serve.New(b, serve.Options{}))
	defer ts.Close()

	var rr serve.ResolveResponse
	if err := postJSON(ts.URL+"/v1/resolve", serve.ResolveRequest{Roots: []string{root}}, &rr); err != nil {
		return err
	}
	if !rr.Optimal || len(rr.Picks) == 0 {
		return fmt.Errorf("resolve: %d picks, optimal=%v", len(rr.Picks), rr.Optimal)
	}
	var st serve.ServerStats
	if err := getJSON(ts.URL+"/v1/stats", &st); err != nil {
		return err
	}
	if st.Pool == nil || len(st.Pool.Shard) != 1 {
		return fmt.Errorf("stats: no single-shard pool section")
	}
	enc := st.Pool.Shard[0].Encoding
	switch {
	case enc.UniversePackages != 2000:
		return fmt.Errorf("stats: universe %d packages, want 2000", enc.UniversePackages)
	case enc.MaterializedPackages == 0 || enc.MaterializedPackages >= enc.UniversePackages/2:
		return fmt.Errorf("stats: materialized %d of %d packages — not lazy enough",
			enc.MaterializedPackages, enc.UniversePackages)
	case enc.SolverVars == 0:
		return fmt.Errorf("stats: zero solver vars after a resolve")
	}
	return nil
}

// checkPoolRouting serves duplicate requests through a pool and demands
// that the repeat is answered by the pool's answer store without reaching
// a shard, and that /v1/stats exposes the pool and per-shard counters.
func checkPoolRouting() error {
	u, root, _ := buildUniverse("registry", 1000, 8)
	b := resolve.NewPoolResolver(u, 4, resolve.SessionOptions{})
	ts := httptest.NewServer(serve.New(b, serve.Options{}))
	defer ts.Close()

	req := serve.ResolveRequest{Roots: []string{root}}
	for i := 0; i < 2; i++ {
		var rr serve.ResolveResponse
		if err := postJSON(ts.URL+"/v1/resolve", req, &rr); err != nil {
			return err
		}
		if !rr.Optimal {
			return fmt.Errorf("request %d: not optimal", i)
		}
	}
	var st serve.ServerStats
	if err := getJSON(ts.URL+"/v1/stats", &st); err != nil {
		return err
	}
	pool := st.Pool
	switch {
	case pool == nil:
		return fmt.Errorf("stats: no pool counters from pool backend")
	case pool.Shards != 4:
		return fmt.Errorf("stats: %d shards, want 4", pool.Shards)
	case pool.Hits != 1:
		return fmt.Errorf("stats: repeat request missed the answer store (hits=%d)", pool.Hits)
	}
	served := uint64(0)
	for _, sh := range pool.Shard {
		served += sh.Served
	}
	if served != 1 {
		return fmt.Errorf("stats: shards solved %d requests, want 1 (the repeat is a hit)", served)
	}
	return nil
}

// checkDegradedMode verifies the stale-answer degraded path end to end:
// with the backend failing (an armed faultpoint at the serving boundary),
// a previously-answered shape must still get a 200 — marked degraded and
// stamped with the epoch it was computed at — and once the fault clears,
// answers must be fresh again with the degraded counter recording the
// episode.
func checkDegradedMode() error {
	defer faultpoint.DisarmAll()
	u, root, _ := buildUniverse("diamond", 4, 3)
	b := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})
	ts := httptest.NewServer(serve.New(b, serve.Options{MaxRetries: -1}))
	defer ts.Close()

	req := serve.ResolveRequest{Roots: []string{root}}
	var warm serve.ResolveResponse
	if err := postJSON(ts.URL+"/v1/resolve", req, &warm); err != nil {
		return fmt.Errorf("warm resolve: %w", err)
	}
	if warm.Degraded {
		return fmt.Errorf("warm resolve already degraded")
	}
	// Advance the universe with a delta the shape reaches, so its stored
	// answer goes stale and its epoch is genuinely old.
	var ar serve.ApplyResponse
	delta := serve.ApplyRequest{Adds: []serve.VersionAddRequest{{Pkg: "base", Version: "99.0"}}}
	if err := postJSON(ts.URL+"/v1/apply", delta, &ar); err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if err := faultpoint.Arm("serve/backend/resolve",
		faultpoint.Any(faultpoint.Error(0, nil))); err != nil {
		return err
	}
	var stale serve.ResolveResponse
	if err := postJSON(ts.URL+"/v1/resolve", req, &stale); err != nil {
		return fmt.Errorf("faulted resolve: %w", err)
	}
	if !stale.Degraded || stale.Epoch != warm.Epoch {
		return fmt.Errorf("faulted resolve: degraded=%v epoch=%d, want stale answer at epoch %d",
			stale.Degraded, stale.Epoch, warm.Epoch)
	}
	faultpoint.DisarmAll()
	var fresh serve.ResolveResponse
	if err := postJSON(ts.URL+"/v1/resolve", req, &fresh); err != nil {
		return fmt.Errorf("recovered resolve: %w", err)
	}
	if fresh.Degraded || fresh.Epoch != ar.Epoch {
		return fmt.Errorf("recovered resolve: degraded=%v epoch=%d, want fresh epoch %d",
			fresh.Degraded, fresh.Epoch, ar.Epoch)
	}
	var st serve.ServerStats
	if err := getJSON(ts.URL+"/v1/stats", &st); err != nil {
		return err
	}
	if st.Degraded < 1 {
		return fmt.Errorf("stats: degraded counter = %d, want >= 1", st.Degraded)
	}
	return nil
}

// checkCrashLoop builds a two-shard pool, drives one shard into a panic
// loop (its first solve panics, and so does every rebuild, via
// faultpoints) under a tight crashloop policy, and demands (a) the first
// request gets the contained *PanicError, (b) later requests succeed off
// the surviving shard, (c) the panicking shard lands in the sticky
// CrashLoop state instead of rebuild-thrashing, and (d) an explicit
// operator Rebuild heals exactly that shard once the fault clears.
func checkCrashLoop() error {
	defer faultpoint.DisarmAll()
	u, root, _ := buildUniverse("diamond", 4, 3)
	p := resolve.NewPoolResolver(u, 2, resolve.SessionOptions{})
	p.SetCrashLoopPolicy(2, time.Hour)
	if err := faultpoint.Arm("resolve/pool/solve",
		faultpoint.Any(faultpoint.Panic(1, "doctor crashloop solve"))); err != nil {
		return err
	}
	if err := faultpoint.Arm("resolve/pool/rebuild",
		faultpoint.Any(faultpoint.Panic(0, "doctor crashloop rebuild"))); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req := resolve.Request{Roots: []resolve.Root{{Pkg: root}}}
	var pe *resolve.PanicError
	if _, err := p.Resolve(ctx, req); !errors.As(err, &pe) {
		return fmt.Errorf("first resolve: %v, want the contained *PanicError", err)
	}
	sticky := ""
	for i := 0; i < 8 && sticky == ""; i++ {
		if _, err := p.Resolve(ctx, req); err != nil {
			return fmt.Errorf("resolve %d should have survived on the healthy shard: %w", i, err)
		}
		for _, h := range p.Health() {
			if h.CrashLoop {
				sticky = h.Name
			}
		}
	}
	if sticky == "" {
		return fmt.Errorf("panicking shard never went sticky after repeated contained panics")
	}
	faultpoint.DisarmAll()
	healed := p.Rebuild()
	if len(healed) != 1 || healed[0] != sticky {
		return fmt.Errorf("rebuild healed %v, want [%s]", healed, sticky)
	}
	for _, h := range p.Health() {
		if h.Quarantined {
			return fmt.Errorf("shard %s still benched after rebuild: %v", h.Name, h.Err)
		}
	}
	return nil
}

// checkDaemon runs a resolve -> apply -> stats -> rebuild cycle over the
// real HTTP surface of a single-session pool.
func checkDaemon() error {
	u, root, _ := buildUniverse("diamond", 4, 3)
	b := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})
	ts := httptest.NewServer(serve.New(b, serve.Options{}))
	defer ts.Close()

	var rr serve.ResolveResponse
	if err := postJSON(ts.URL+"/v1/resolve", serve.ResolveRequest{Roots: []string{root}}, &rr); err != nil {
		return err
	}
	if len(rr.Picks) == 0 || !rr.Optimal {
		return fmt.Errorf("resolve: %d picks, optimal=%v", len(rr.Picks), rr.Optimal)
	}
	var ar serve.ApplyResponse
	delta := serve.ApplyRequest{Adds: []serve.VersionAddRequest{{Pkg: "base", Version: "99.0"}}}
	if err := postJSON(ts.URL+"/v1/apply", delta, &ar); err != nil {
		return err
	}
	if ar.Epoch != 1 {
		return fmt.Errorf("apply: epoch %d, want 1", ar.Epoch)
	}
	var st serve.ServerStats
	if err := getJSON(ts.URL+"/v1/stats", &st); err != nil {
		return err
	}
	if st.Requests < 1 || st.Epoch != 1 || st.Applies != 1 {
		return fmt.Errorf("stats: requests=%d epoch=%d applies=%d", st.Requests, st.Epoch, st.Applies)
	}
	var rb serve.RebuildResponse
	if err := postJSON(ts.URL+"/v1/rebuild", struct{}{}, &rb); err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if len(rb.Healed) != 0 {
		return fmt.Errorf("rebuild healed %v with nothing benched", rb.Healed)
	}
	return nil
}

// checkCoalescing fires waves of duplicate concurrent requests and
// demands the coalesce counter caught duplicates. Each wave asks for a
// shape no earlier wave asked for, so no wave is answered by the answer
// store before the backend solves. A single wave can legitimately miss
// (the leader may publish before any follower's request arrives —
// coalescing collapses *overlap*, and overlap is timing), so the check
// runs waves over pooled connections until duplicates collide; the
// exact-count contract is pinned deterministically in serve's -race tests.
func checkCoalescing() error {
	u, root, _ := buildUniverse("dense", 64, 8)
	b := resolve.NewPoolResolver(u, 1, resolve.SessionOptions{})
	ts := httptest.NewServer(serve.New(b, serve.Options{}))
	defer ts.Close()

	const n = 16
	for wave := 0; wave < 50; wave++ {
		req := serve.ResolveRequest{Roots: []string{root, fmt.Sprintf("dense%d", wave+1)}}
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				var rr serve.ResolveResponse
				errs[i] = postJSON(ts.URL+"/v1/resolve", req, &rr)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		var st serve.ServerStats
		if err := getJSON(ts.URL+"/v1/stats", &st); err != nil {
			return err
		}
		if st.Coalesced >= 1 {
			return nil
		}
	}
	return fmt.Errorf("no coalescing across 50 waves of %d duplicate requests", n)
}

func postJSON(url string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return fmt.Errorf("POST %s: %d %s (%s)", url, resp.StatusCode, er.Kind, er.Error)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

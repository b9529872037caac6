package concretize

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// TestSessionMatchesColdCurated runs the curated end-to-end universes from
// concretize_test through one shared Session and checks the warm answers
// against fresh Concretize calls, including interleaved repeats.
func TestSessionMatchesColdCurated(t *testing.T) {
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("liba", ":"), repo.Dep("libb", ":"))
	u.Add("app", "1.0", repo.Dep("liba", ":"))
	u.Add("liba", "3.0", repo.Dep("base", "1.2"))
	u.Add("liba", "2.0", repo.Dep("base", "1.2"))
	u.Add("liba", "1.0", repo.Dep("base", ":"))
	u.Add("libb", "2.0", repo.Dep("base", "1.2.8:"))
	u.Add("libb", "1.0", repo.Dep("base", ":"))
	u.Add("base", "1.2.11")
	u.Add("base", "1.2.8")
	u.Add("base", "1.1")

	sess := NewSession(u, SessionOptions{})
	requests := [][]Root{
		{MustParseRoot("app")},
		{MustParseRoot("liba"), MustParseRoot("libb")},
		{MustParseRoot("base@:1.2.8")},
		{MustParseRoot("app@1")},
		{MustParseRoot("app")}, // repeat: cache hit
		{MustParseRoot("app@9:")},
	}
	for i, roots := range requests {
		cold, coldErr := Concretize(u, roots, Options{})
		warm, warmErr := sess.Resolve(context.Background(), roots, Options{})
		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("request %d: cold err %v, warm err %v", i, coldErr, warmErr)
		}
		if coldErr != nil {
			if !errors.Is(warmErr, ErrUnsatisfiable) || !errors.Is(coldErr, ErrUnsatisfiable) {
				t.Fatalf("request %d: errors disagree: cold %v, warm %v", i, coldErr, warmErr)
			}
			continue
		}
		if !reflect.DeepEqual(pickStrings(cold), pickStrings(warm)) {
			t.Errorf("request %d: picks differ: cold %v, warm %v", i, pickStrings(cold), pickStrings(warm))
		}
		if cold.Stats.Cost != warm.Stats.Cost {
			t.Errorf("request %d: cost %d (cold) vs %d (warm)", i, cold.Stats.Cost, warm.Stats.Cost)
		}
	}
}

// TestSessionCacheHit: a repeated request must be answered from the cache —
// identical picks and cost, CacheHit set, and zero additional solver work.
func TestSessionCacheHit(t *testing.T) {
	u, root := repo.SynthDense(20, 5, 3, 11)
	sess := NewSession(u, SessionOptions{})
	roots := []Root{{Pkg: root}}

	first, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if first.Stats.SolutionCacheHit {
		t.Error("first request cannot be a cache hit")
	}
	decisions := sess.solver.Decisions

	second, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("repeat Resolve: %v", err)
	}
	if !second.Stats.SolutionCacheHit {
		t.Error("repeat request must be a cache hit")
	}
	if sess.solver.Decisions != decisions {
		t.Error("cache hit touched the solver")
	}
	if !reflect.DeepEqual(pickStrings(first), pickStrings(second)) || first.Stats.Cost != second.Stats.Cost {
		t.Error("cached answer differs from original")
	}
	// Root order and duplicates canonicalize to the same key.
	if sess.CacheLen() != 1 {
		t.Fatalf("CacheLen = %d, want 1", sess.CacheLen())
	}
	dup, err := sess.Resolve(context.Background(), []Root{{Pkg: root}, {Pkg: root}}, Options{})
	if err != nil || !dup.Stats.SolutionCacheHit {
		t.Errorf("duplicated roots missed the cache (err %v)", err)
	}
	// Returned picks are caller-owned: mutating them must not poison later hits.
	for k := range dup.Picks {
		delete(dup.Picks, k)
	}
	again, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil || !reflect.DeepEqual(pickStrings(first), pickStrings(again)) {
		t.Error("cache entry was corrupted by caller mutation")
	}
}

// TestSessionCachesUnsat: proven unsatisfiability is definitive and must be
// memoized too, so repeat failing requests skip the solver.
func TestSessionCachesUnsat(t *testing.T) {
	u, root := repo.SynthUnsatWeb(4, 3)
	sess := NewSession(u, SessionOptions{})
	roots := []Root{{Pkg: root}}
	if _, err := sess.Resolve(context.Background(), roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	decisions := sess.solver.Decisions
	if _, err := sess.Resolve(context.Background(), roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("repeat err = %v, want ErrUnsatisfiable", err)
	}
	if sess.solver.Decisions != decisions {
		t.Error("repeat unsat request touched the solver")
	}
}

// TestSessionCacheDisabled: CacheSize < 0 turns memoization off.
func TestSessionCacheDisabled(t *testing.T) {
	u, root := repo.SynthDense(12, 4, 2, 3)
	sess := NewSession(u, SessionOptions{CacheSize: -1})
	roots := []Root{{Pkg: root}}
	if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	res, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("repeat Resolve: %v", err)
	}
	if res.Stats.SolutionCacheHit || sess.CacheLen() != 0 {
		t.Error("disabled cache served a hit")
	}
}

// TestSessionLRUEviction: the cache holds at most CacheSize entries,
// evicting least-recently-used.
func TestSessionLRUEviction(t *testing.T) {
	u, _ := repo.SynthDense(8, 3, 1, 21)
	sess := NewSession(u, SessionOptions{CacheSize: 2})
	for _, pkg := range []string{"dense0", "dense1", "dense2", "dense3"} {
		if _, err := sess.Resolve(context.Background(), []Root{{Pkg: pkg}}, Options{}); err != nil {
			t.Fatalf("Resolve %s: %v", pkg, err)
		}
	}
	if got := sess.CacheLen(); got != 2 {
		t.Fatalf("CacheLen = %d, want 2", got)
	}
	// dense0 was evicted long ago; resolving it again is a miss.
	decisions := sess.solver.Decisions
	res, err := sess.Resolve(context.Background(), []Root{{Pkg: "dense0"}}, Options{})
	if err != nil {
		t.Fatalf("Resolve dense0: %v", err)
	}
	if res.Stats.SolutionCacheHit || sess.solver.Decisions == decisions {
		t.Error("evicted entry still served from cache")
	}
}

// TestSessionBudgetIsPerRequest: a conflict budget scopes to one request;
// an exhausted budget must not bleed into, or be bled into by, the
// session's lifetime conflict count.
func TestSessionBudgetIsPerRequest(t *testing.T) {
	u, root := repo.SynthUnsatWeb(10, 4)
	sess := NewSession(u, SessionOptions{CacheSize: -1})
	roots := []Root{{Pkg: root}}
	// Burn some lifetime conflicts first with an unbudgeted request.
	if _, err := sess.Resolve(context.Background(), roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	// A tiny budget must expire (the web needs many conflicts to refute
	// from scratch — though the session's learnt clauses may help, one
	// conflict is never enough) ...
	if _, err := sess.Resolve(context.Background(), roots, Options{MaxConflicts: 1}); err == nil {
		t.Fatal("expected an error under a one-conflict budget")
	}
	// ... and a later unbudgeted request must be unaffected by it.
	if _, err := sess.Resolve(context.Background(), roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("post-budget err = %v, want ErrUnsatisfiable", err)
	}
}

// TestSessionGuardRetirementBoundsSolverMemory is the regression test for
// the ROADMAP latent inefficiency: branch-and-bound guards from past
// requests must not accumulate in the solver. After every request the
// active PB constraints are exactly the encoding's (materialized by the
// first request), the occurrence lists are back to their encoding size,
// and constraint slots are recycled.
func TestSessionGuardRetirementBoundsSolverMemory(t *testing.T) {
	u, root := repo.SynthDense(20, 5, 3, 5)
	sess := NewSession(u, SessionOptions{CacheSize: -1}) // every request hits the solver
	roots := []Root{{Pkg: root}}

	if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	skeletonPBs := sess.solver.ActivePBs()
	skeletonOcc := sess.solver.PBOccupancy()
	slotsAfterFirst := sess.solver.PBSlots()

	for i := 0; i < 20; i++ {
		if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got := sess.solver.ActivePBs(); got != skeletonPBs {
			t.Fatalf("request %d: ActivePBs = %d, want skeleton %d (guards leaked)", i, got, skeletonPBs)
		}
		if got := sess.solver.PBOccupancy(); got != skeletonOcc {
			t.Fatalf("request %d: PBOccupancy = %d, want skeleton %d (occurrences leaked)", i, got, skeletonOcc)
		}
	}
	if got := sess.solver.PBSlots(); got > slotsAfterFirst {
		t.Errorf("PBSlots grew from %d to %d across requests: retired slots not recycled",
			slotsAfterFirst, got)
	}
}

// TestSessionConcurrent hammers one Session from many goroutines with
// overlapping requests (run under -race in CI). Every response must
// independently pass verify and match the precomputed cold answer.
func TestSessionConcurrent(t *testing.T) {
	u, _ := repo.SynthDense(20, 5, 3, 99)
	type expect struct {
		roots []Root
		picks map[string]string
		cost  int64
		unsat bool
	}
	var pool []expect
	for _, spec := range [][]string{
		{"dense0"},
		{"dense1", "dense4"},
		{"dense2@:3"},
		{"dense0", "dense7"},
		{"dense5", "dense5@2:"},
		{"dense3@9:"}, // no such version: unsatisfiable
		{"dense9"},
		{"dense0@:4", "dense11"},
	} {
		var roots []Root
		for _, s := range spec {
			roots = append(roots, MustParseRoot(s))
		}
		e := expect{roots: roots}
		cold, err := Concretize(u, roots, Options{})
		if err != nil {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatalf("cold %v: %v", spec, err)
			}
			e.unsat = true
		} else {
			e.picks, e.cost = pickStrings(cold), cold.Stats.Cost
		}
		pool = append(pool, e)
	}

	sess := NewSession(u, SessionOptions{CacheSize: 4}) // small: force hit/miss/evict interleaving
	const goroutines, iters = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := pool[(g*7+i)%len(pool)]
				res, err := sess.Resolve(context.Background(), e.roots, Options{})
				if e.unsat {
					if !errors.Is(err, ErrUnsatisfiable) {
						t.Errorf("goroutine %d: err = %v, want ErrUnsatisfiable", g, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("goroutine %d: Resolve: %v", g, err)
					continue
				}
				if verr := verify(u, e.roots, res.Picks); verr != nil {
					t.Errorf("goroutine %d: verify: %v", g, verr)
				}
				if !reflect.DeepEqual(pickStrings(res), e.picks) || res.Stats.Cost != e.cost {
					t.Errorf("goroutine %d: answer drifted: got %v cost %d, want %v cost %d",
						g, pickStrings(res), res.Stats.Cost, e.picks, e.cost)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionActivationEviction: the activation-literal memo is bounded —
// a stream of distinct root specs cannot grow the solver without limit,
// and previously evicted specs still resolve correctly (a fresh literal is
// allocated on demand).
func TestSessionActivationEviction(t *testing.T) {
	u, _ := repo.SynthDense(10, 5, 2, 13)
	sess := NewSession(u, SessionOptions{CacheSize: -1, MaxActivations: 3})
	cold := map[string]*Resolution{}
	var specs []string
	for pkg := 0; pkg < 5; pkg++ {
		for hi := 1; hi <= 3; hi++ {
			specs = append(specs, fmt.Sprintf("dense%d@:%d", pkg, hi))
		}
	}
	for _, spec := range specs {
		roots := []Root{MustParseRoot(spec)}
		res, err := Concretize(u, roots, Options{})
		if err != nil {
			t.Fatalf("cold %s: %v", spec, err)
		}
		cold[spec] = res
		if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
			t.Fatalf("warm %s: %v", spec, err)
		}
		if got := len(sess.acts); got > 3 {
			t.Fatalf("after %s: %d activation literals memoized, cap is 3", spec, got)
		}
	}
	// Every early spec has been evicted by now; replay the whole stream and
	// require answers identical to cold (SynthDense optima are unique).
	for _, spec := range specs {
		roots := []Root{MustParseRoot(spec)}
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatalf("replay %s: %v", spec, err)
		}
		if !reflect.DeepEqual(pickStrings(res), pickStrings(cold[spec])) ||
			res.Stats.Cost != cold[spec].Stats.Cost {
			t.Fatalf("replay %s: answer drifted after eviction", spec)
		}
	}
	// A single request with more roots than the cap must still be answered
	// correctly: in-flight activations are pinned against eviction.
	roots := []Root{
		MustParseRoot("dense0@:4"), MustParseRoot("dense1@:4"),
		MustParseRoot("dense2@:4"), MustParseRoot("dense3@:4"),
		MustParseRoot("dense4@:4"),
	}
	coldWide, err := Concretize(u, roots, Options{})
	if err != nil {
		t.Fatalf("cold wide: %v", err)
	}
	warmWide, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("warm wide: %v", err)
	}
	if !reflect.DeepEqual(pickStrings(warmWide), pickStrings(coldWide)) {
		t.Fatal("wide request wrong under pinned eviction")
	}
}

// TestSessionFingerprintMatchesUniverse: the session's cache-key prefix is
// the universe's content hash.
func TestSessionFingerprintMatchesUniverse(t *testing.T) {
	u, _ := repo.SynthDense(6, 2, 1, 1)
	sess := NewSession(u, SessionOptions{})
	if sess.Fingerprint() != u.Fingerprint() {
		t.Error("session fingerprint differs from universe fingerprint")
	}
	if sess.Fingerprint() == "" {
		t.Error("empty fingerprint")
	}
}

// TestSessionEmptyRoots: no roots resolves to the empty optimal resolution
// without touching solver or cache.
func TestSessionEmptyRoots(t *testing.T) {
	u, _ := repo.SynthDense(4, 2, 1, 2)
	sess := NewSession(u, SessionOptions{})
	res, err := sess.Resolve(context.Background(), nil, Options{})
	if err != nil || len(res.Picks) != 0 || !res.Stats.Optimal {
		t.Errorf("got %+v, %v; want empty optimal resolution", res, err)
	}
	if sess.CacheLen() != 0 {
		t.Error("empty request was cached")
	}
}

// TestSessionUnknownRoot: unknown packages are request errors, distinct
// from unsatisfiability, and are not cached.
func TestSessionUnknownRoot(t *testing.T) {
	u, _ := repo.SynthDense(4, 2, 1, 2)
	sess := NewSession(u, SessionOptions{})
	_, err := sess.Resolve(context.Background(), []Root{{Pkg: "ghost"}}, Options{})
	if err == nil || errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want unknown-package error", err)
	}
	if sess.CacheLen() != 0 {
		t.Error("request error was cached")
	}
}

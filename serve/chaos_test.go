package serve

// The chaos harness (run under -race by `make chaos` and CI): randomized
// resolve->delta->resolve streams against a daemon whose faultpoints are
// armed with randomized schedules — injected errors, latency, and panics
// at the solve, extend, materialize, and serving boundaries. The
// invariants asserted every round, per fixed seed:
//
//   1. No panic escapes: every request gets an HTTP answer.
//   2. Every non-degraded 200 is identical (cost, optimality) to a
//      fault-free oracle's answer at the epoch the response states.
//   3. Degraded 200s verify the same way against their (stale) epoch.
//   4. Failures only ever map to the sanctioned statuses (429/500/503/504).
//   5. Capacity always recovers: after the storm, one operator rebuild
//      restores every member/shard and every shape resolves fresh.
//
// The oracle is an identically-seeded universe behind a single-session
// pool, fed the same deltas with no faults armed; oracle answers are
// recorded per epoch so answers served from the answer store or degraded
// mode (which may state an older epoch) verify against the epoch they
// were computed at.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

func TestChaosPortfolio(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runChaos(t, "portfolio", seed) })
	}
}

func TestChaosPool(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runChaos(t, "pool", seed) })
	}
}

// oracleAns is the fault-free answer for one shape at one epoch.
type oracleAns struct {
	cost  int64
	unsat bool
}

func runChaos(t *testing.T, kind string, seed int64) {
	const (
		pkgs     = 48
		versions = 5
		depsPer  = 3
		rounds   = 5
		waveSize = 16
	)
	uSrv, root := repo.SynthDense(pkgs, versions, depsPer, 7)
	uOracle, _ := repo.SynthDense(pkgs, versions, depsPer, 7)

	// Generous crashloop budget: the storm deliberately crashes solvers
	// over and over; sticky benches are the recovery phase's concern.
	var backend Backend
	var solveSite string
	switch kind {
	case "portfolio":
		p, err := resolve.NewPortfolioResolver(uSrv, raceConfigs()...)
		if err != nil {
			t.Fatal(err)
		}
		p.SetCrashLoopPolicy(1000, time.Minute)
		backend = p
		solveSite = "resolve/portfolio/solve"
	case "pool":
		p := resolve.NewPoolResolver(uSrv, 4, resolve.SessionOptions{})
		p.SetCrashLoopPolicy(1000, time.Minute)
		backend = p
		solveSite = "resolve/pool/solve"
	default:
		t.Fatalf("unknown backend kind %q", kind)
	}

	oracle := resolve.NewPoolResolver(uOracle, 1, resolve.SessionOptions{})
	s := New(backend, Options{MaxInflight: 4, MaxRetries: 2, RetryBackoff: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()
	t.Cleanup(faultpoint.DisarmAll)

	shapes := [][]string{
		{root},
		{"dense1"},
		{"dense7"},
		{"dense3", "dense11"},
		{"dense20"},
	}
	shapeKey := func(roots []string) string { return strings.Join(roots, ",") }

	rng := rand.New(rand.NewSource(seed))
	history := map[uint64]map[string]oracleAns{} // epoch -> shape -> answer

	recordOracle := func(epoch uint64) {
		if _, ok := history[epoch]; ok {
			return
		}
		m := map[string]oracleAns{}
		for _, roots := range shapes {
			req := resolve.Request{Objective: resolve.NewestVersion()}
			for _, spec := range roots {
				r, err := resolve.ParseRoot(spec)
				if err != nil {
					t.Fatal(err)
				}
				req.Roots = append(req.Roots, r)
			}
			r, err := oracle.Resolve(context.Background(), req)
			switch {
			case err == nil && r.Stats.Optimal:
				m[shapeKey(roots)] = oracleAns{cost: r.Stats.Cost}
			case errors.Is(err, resolve.ErrUnsatisfiable):
				m[shapeKey(roots)] = oracleAns{unsat: true}
			default:
				t.Fatalf("oracle at epoch %d, shape %v: %v", epoch, roots, err)
			}
		}
		history[epoch] = m
	}

	// armWave arms a randomized fault schedule for one request wave.
	armWave := func() {
		arm := func(site string, steps ...faultpoint.Step) {
			if err := faultpoint.Arm(site, faultpoint.Any(steps...)); err != nil {
				t.Fatal(err)
			}
		}
		switch rng.Intn(4) {
		case 0:
			arm(solveSite, faultpoint.Skip(rng.Intn(3)), faultpoint.Error(1+rng.Intn(3), nil))
		case 1:
			arm(solveSite, faultpoint.Skip(rng.Intn(3)), faultpoint.Panic(1+rng.Intn(2), "chaos solve panic"))
		case 2:
			arm(solveSite, faultpoint.Latency(1+rng.Intn(6), time.Duration(1+rng.Intn(3))*time.Millisecond))
		case 3:
			// No solve-site faults this wave.
		}
		if rng.Intn(2) == 0 {
			arm("serve/backend/resolve", faultpoint.Skip(rng.Intn(4)), faultpoint.Error(1+rng.Intn(2), nil))
		}
		if kind == "pool" && rng.Intn(3) == 0 {
			arm("concretize/materialize", faultpoint.Error(1, nil))
		}
	}

	type waveResult struct {
		shape  string
		status int
		ok     ResolveResponse
		bad    ErrorResponse
		err    error
	}

	for round := 0; round < rounds; round++ {
		faultpoint.DisarmAll()
		recordOracle(uint64(backend.Epoch()))
		armWave()

		results := make([]waveResult, waveSize)
		var wg sync.WaitGroup
		for i := 0; i < waveSize; i++ {
			i, roots := i, shapes[rng.Intn(len(shapes))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := &results[i]
				r.shape = shapeKey(roots)
				r.status, r.ok, r.bad, r.err = postResolve(ts.URL, ResolveRequest{Roots: roots, TimeoutMS: 30000})
			}()
		}
		wg.Wait()
		faultpoint.DisarmAll()

		for i, r := range results {
			if r.err != nil {
				t.Fatalf("round %d request %d: transport error %v — a panic escaped?", round, i, r.err)
			}
			switch r.status {
			case http.StatusOK:
				epochAns, ok := history[r.ok.Epoch]
				if !ok {
					t.Fatalf("round %d: answer states unknown epoch %d", round, r.ok.Epoch)
				}
				want := epochAns[r.shape]
				if want.unsat {
					t.Fatalf("round %d: 200 for %s, oracle says unsat at epoch %d", round, r.shape, r.ok.Epoch)
				}
				if !r.ok.Optimal || r.ok.Cost != want.cost {
					t.Fatalf("round %d: %s answered cost=%d optimal=%v degraded=%v at epoch %d, oracle cost=%d",
						round, r.shape, r.ok.Cost, r.ok.Optimal, r.ok.Degraded, r.ok.Epoch, want.cost)
				}
			case http.StatusTooManyRequests, http.StatusInternalServerError,
				http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				// Sanctioned failure statuses under injected faults.
			default:
				t.Fatalf("round %d: %s got unsanctioned status %d (kind %q: %s)",
					round, r.shape, r.status, r.bad.Kind, r.bad.Error)
			}
		}

		// Grow the universe — sometimes with a faulted broadcast, which
		// rebuilds the failed member inside the broadcast; either way the
		// apply succeeds, the universe advances, and the oracle follows
		// with the same delta.
		if rng.Intn(2) == 0 {
			if err := faultpoint.Arm("concretize/extend",
				faultpoint.Any(faultpoint.Skip(rng.Intn(3)), faultpoint.Error(1, nil))); err != nil {
				t.Fatal(err)
			}
		}
		pkg := fmt.Sprintf("dense%d", rng.Intn(pkgs))
		dep := fmt.Sprintf("dense%d", rng.Intn(pkgs))
		ver := fmt.Sprintf("%d.0", 100+round)
		buf, _ := json.Marshal(ApplyRequest{Adds: []VersionAddRequest{
			{Pkg: pkg, Version: ver, Deps: []DeclRequest{{Pkg: dep}}},
		}})
		resp, err := http.Post(ts.URL+"/v1/apply", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("round %d apply: %v", round, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d apply status = %d", round, resp.StatusCode)
		}
		faultpoint.DisarmAll()
		d := resolve.NewDelta()
		d.Add(pkg, ver, repo.Dep(dep, ":"))
		if _, err := oracle.Apply(d); err != nil {
			t.Fatalf("round %d oracle apply: %v", round, err)
		}
		if oe, se := uint64(oracle.Epoch()), uint64(backend.Epoch()); oe != se {
			t.Fatalf("round %d: oracle epoch %d != server epoch %d", round, oe, se)
		}
	}

	// Recovery: with faults gone, one operator rebuild must restore full
	// capacity, and every shape must resolve fresh (non-degraded) with the
	// oracle's answer.
	faultpoint.DisarmAll()
	resp, err := http.Post(ts.URL+"/v1/rebuild", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovery rebuild status = %d", resp.StatusCode)
	}
	final := uint64(backend.Epoch())
	recordOracle(final)
	for _, roots := range shapes {
		status, ok, bad, err := postResolve(ts.URL, ResolveRequest{Roots: roots, TimeoutMS: 30000})
		if err != nil || status != http.StatusOK {
			t.Fatalf("recovery resolve %v = %d (%s), %v", roots, status, bad.Error, err)
		}
		if ok.Degraded {
			t.Fatalf("recovery resolve %v still degraded", roots)
		}
		want := history[ok.Epoch][shapeKey(roots)]
		if want.unsat || !ok.Optimal || ok.Cost != want.cost {
			t.Fatalf("recovery resolve %v: cost=%d optimal=%v at epoch %d, oracle cost=%d",
				roots, ok.Cost, ok.Optimal, ok.Epoch, want.cost)
		}
	}
	st := s.Stats()
	for _, m := range st.Members {
		if m.Quarantined {
			t.Fatalf("member %s still benched after recovery: %s", m.Name, m.Error)
		}
	}
	if st.Pool != nil && st.Pool.Broken != 0 {
		t.Fatalf("%d pool shards still broken after recovery", st.Pool.Broken)
	}
}

package concretize

import (
	"context"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// TestProviderSwapMissAllocs pins what a warm provider-swap miss
// allocates. The reuse-swap stream has 25 root sets (app, alone or with
// one of 24 providers) under ever-new installed profiles, so after a
// short prefix every miss finds its roots' closure in the closure memo
// and lowers only its objective; the guarded bound it adds is merged
// through the solver's literal marks, and its occurrences carry their
// weights, so it builds no weight map. Re-walking the closure per miss
// and building a weight map per bound made 200 allocations per miss.
func TestProviderSwapMissAllocs(t *testing.T) {
	const prefix, runs = 100, 200
	u, _ := repo.SynthVirtualDiamond(8, 3, 8)
	reqs := reuseSwapDraw(rand.New(rand.NewSource(1)), prefix+runs)
	se := NewSession(u)
	next := 0
	resolve := func() {
		rq := reqs[next]
		next++
		res, err := se.Resolve(context.Background(), rq.roots, Options{Objective: rq.obj})
		if err != nil {
			t.Fatalf("request %d (%s): %v", next-1, rootsString(rq.roots), err)
		}
		if res.Stats.BoundMemoHit {
			t.Fatalf("request %d (%s): a distinct shape hit the bound memo", next-1, rootsString(rq.roots))
		}
	}
	for next < prefix {
		resolve()
	}
	// AllocsPerRun makes one warm-up call before its runs.
	allocs := testing.AllocsPerRun(runs-1, resolve)
	if next != prefix+runs {
		t.Fatalf("measured %d requests, want %d", next-prefix, runs)
	}
	t.Logf("%.1f allocations per provider-swap miss", allocs)
	if allocs > 100 {
		t.Errorf("a provider-swap miss made %.0f allocations, want at most 100", allocs)
	}
}

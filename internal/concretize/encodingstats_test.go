package concretize

import (
	"context"
	"math/rand"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// TestEncodingStatsSolverVarsFresh: EncodingStats.SolverVars reads the
// solver's variable count as of the last solve, not of the last
// materialization. The reuse-swap stream's misses after the first few
// find their closure materialized, yet each allocates activation and
// bound-guard variables; a mirror refreshed only when materializing read
// 439 after a thousand of them while the solver held 1,267.
func TestEncodingStatsSolverVarsFresh(t *testing.T) {
	const n = 300
	u, _ := repo.SynthVirtualDiamond(8, 3, 8)
	reqs := reuseSwapDraw(rand.New(rand.NewSource(1)), n)
	se := NewSession(u)
	first := 0
	for i, rq := range reqs {
		res, err := se.Resolve(context.Background(), rq.roots, Options{Objective: rq.obj})
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, rootsString(rq.roots), err)
		}
		if i == 0 {
			first = res.Stats.Variables
		}
		if got := se.EncodingStats().SolverVars; got != res.Stats.Variables {
			t.Fatalf("after request %d: EncodingStats.SolverVars = %d, the answer's Stats.Variables = %d",
				i, got, res.Stats.Variables)
		}
	}
	t.Logf("solver variables: %d after the first miss, %d after %d", first, se.EncodingStats().SolverVars, n)
}

package concretize

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// descent_test.go pins the in-place bound-tightening rewrite of the
// branch-and-bound loop: a warm session's descent must return the cold
// path's answer, adaptive descent must take O(log range) solve rounds on a
// cold session and bisect once a warm request's linear probe improves,
// and a tightening round must never allocate a fresh solver variable or
// PB constraint slot.

// runDescentDifferential feeds one warm request stream through a session
// and through the cold one-shot path, requiring both to agree on
// satisfiability and optimal cost (and on picks when the family's optima
// are unique). Repeats within the stream re-solve a known shape on a
// session with no answer store in front: the descent then starts from
// saved phases and learnt clauses the shape's earlier solve left behind,
// which is exactly the warm state the cold oracle must still match.
func runDescentDifferential(t *testing.T, u *repo.Universe, gen func(rng *rand.Rand) []Root, nReqs int, exactPicks bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sess := NewSession(u)
	var replay [][]Root
	for i := 0; i < nReqs; i++ {
		var roots []Root
		if len(replay) > 0 && rng.Intn(3) == 0 {
			roots = replay[rng.Intn(len(replay))] // warm repeat
		} else {
			roots = gen(rng)
			replay = append(replay, roots)
		}
		oracle, oracleErr := Concretize(u, roots, Options{})
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if oracleErr != nil {
			if !errors.Is(oracleErr, ErrUnsatisfiable) {
				t.Fatalf("roots %s: oracle error not unsat: %v", rootsString(roots), oracleErr)
			}
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatalf("roots %s: err %v, oracle unsat", rootsString(roots), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("roots %s: %v", rootsString(roots), err)
		}
		if !res.Stats.Optimal {
			t.Fatalf("roots %s: non-optimal without a budget", rootsString(roots))
		}
		if res.Stats.Cost != oracle.Stats.Cost {
			t.Fatalf("roots %s: cost %d, oracle %d", rootsString(roots), res.Stats.Cost, oracle.Stats.Cost)
		}
		if err := verify(u, roots, res.Picks); err != nil {
			t.Fatalf("roots %s: invalid answer: %v", rootsString(roots), err)
		}
		if exactPicks && !reflect.DeepEqual(res.Picks, oracle.Picks) {
			t.Fatalf("roots %s: picks diverge:\n%v\n%v", rootsString(roots), res.Picks, oracle.Picks)
		}
	}
}

// TestDescentDifferentialDense: monotone family, unique optima — the
// warm session must agree pick-for-pick with the cold oracle.
func TestDescentDifferentialDense(t *testing.T) {
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		u, _ := repo.SynthDense(20, 6, 3, seed)
		gen := func(rng *rand.Rand) []Root { return diffRequest(rng, 20, 6) }
		runDescentDifferential(t, u, gen, 12, true, seed)
	}
}

// TestDescentDifferentialVirtualDiamond: provider competition admits
// co-optimal resolutions, so the oracle is cost + verify.
func TestDescentDifferentialVirtualDiamond(t *testing.T) {
	u, _ := repo.SynthVirtualDiamond(4, 3, 5)
	gen := func(rng *rand.Rand) []Root { return virtualDiamondRequest(rng, 4, 3, 5) }
	runDescentDifferential(t, u, gen, 16, false, 7)
}

// TestDescentDifferentialConditionalChain: trigger-gated deps flip cost
// and satisfiability with the root picks; cost + verify oracle.
func TestDescentDifferentialConditionalChain(t *testing.T) {
	u, _ := repo.SynthConditionalChain(10, 4)
	gen := func(rng *rand.Rand) []Root { return conditionalChainRequest(rng, 10, 4, false) }
	runDescentDifferential(t, u, gen, 16, false, 11)
}

// TestAdaptiveDescentColdLogarithmic: on a cold session, adaptive descent
// must settle in O(log range) solve rounds, where the range is bounded by
// the objective's total weight — at most one linear probe more than
// bisection's log2(total) UNSAT and log2(total) SAT rounds, plus the first
// model and the closing proof. (Linear descent from a bad incumbent is
// O(range).) On the conflict-bearing family the seeded first model is not
// always optimal, so some of these requests do descend.
func TestAdaptiveDescentColdLogarithmic(t *testing.T) {
	descended := 0
	for seed := int64(0); seed < 10; seed++ {
		u, root := repo.SynthDenseConflicts(20, 6, 3, 2, seed)
		roots := []Root{{Pkg: root}}
		total := objectiveTotal(t, u, roots)

		res, err := NewSession(u).Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Stats.Improvements > 1 {
			descended++
		}
		if limit := 2*bits.Len64(uint64(total)) + 5; res.Stats.SolveCalls > limit {
			t.Errorf("seed %d: adaptive descent took %d solve calls (%d models), want <= %d (total weight %d)",
				seed, res.Stats.SolveCalls, res.Stats.Improvements, limit, total)
		}
	}
	if descended == 0 {
		t.Fatal("no request descended past its first model: the family no longer exercises descent")
	}
}

// objectiveTotal returns the default objective's total weight over the
// request's reachable set, which bounds the descent range.
func objectiveTotal(t *testing.T, u *repo.Universe, roots []Root) int64 {
	t.Helper()
	order, _, err := reachable(u, roots)
	if err != nil {
		t.Fatal(err)
	}
	costs, err := DefaultObjective.Costs(ObjectiveRequest{Universe: u, Order: order, Roots: roots})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, pc := range costs {
		total += pc.Install + pc.Omit
		for _, w := range pc.Version {
			total += w
		}
	}
	return total
}

// TestAdaptiveDescentWarmFirstVisitLogarithmic: on a warm session,
// saved phases start a first-visit search from the previous request's
// model, and the first model found can sit far above the optimum while
// every linear probe below it returns only the next model down. Adaptive
// descent must notice (its first linear probe improves) and bisect, so a
// miss costs O(log range) solve calls plus the one linear probe — and
// still returns the cold path's answer pick for pick (registry optima are
// unique).
func TestAdaptiveDescentWarmFirstVisitLogarithmic(t *testing.T) {
	u, _ := repo.SynthRegistry(firstVisitPkgs, firstVisitVers)
	sess := newFirstVisitSession(t, u)
	for _, roots := range firstVisitRoots(48) {
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatalf("%s: %v", rootsString(roots), err)
		}
		if limit := 2*bits.Len64(uint64(objectiveTotal(t, u, roots))) + 5; res.Stats.SolveCalls > limit {
			t.Errorf("%s: first visit took %d solve calls (%d models), want <= %d",
				rootsString(roots), res.Stats.SolveCalls, res.Stats.Improvements, limit)
		}
		cold, err := Concretize(u, roots, Options{})
		if err != nil {
			t.Fatalf("%s: cold: %v", rootsString(roots), err)
		}
		if !reflect.DeepEqual(res.Picks, cold.Picks) {
			t.Fatalf("%s: warm picks diverge from cold:\n%v\n%v", rootsString(roots), res.Picks, cold.Picks)
		}
	}
}

// TestDescentNoPerRoundAllocation: the regression in-place tightening
// exists to pin. A multi-round descent must allocate at most ONE solver
// variable (the per-request bound guard) and recycle PB constraint slots,
// no matter how many tightening rounds it runs. Every request here
// repeats a warmed shape, which re-solves in full, seed and descent, and
// is held to that bound.
func TestDescentNoPerRoundAllocation(t *testing.T) {
	u, root := repo.SynthVirtualDiamond(6, 3, 6)
	sess := NewSession(u)
	pool := [][]Root{
		{{Pkg: root}},
		{MustParseRoot("virtual:virt0")},
		{MustParseRoot("virt1@:4")},
		{MustParseRoot("virtual:virt2@2:")},
	}
	// Warm up: every shape gets its activation literal and its closure in
	// the closure memo.
	for _, roots := range pool {
		if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	vars0 := sess.solver.NumVars()
	slots0 := sess.solver.PBSlots()
	for round := 0; round < 8; round++ {
		for _, roots := range pool {
			res, err := sess.Resolve(context.Background(), roots, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The request may run several tightening rounds; all of them
			// together may allocate at most one guard variable.
			vars := sess.solver.NumVars()
			if grew := vars - vars0; grew > 1 {
				t.Fatalf("round %d roots %s: request allocated %d vars across %d solve rounds, want <= 1",
					round, rootsString(roots), grew, res.Stats.SolveCalls)
			}
			vars0 = vars
			if slots := sess.solver.PBSlots(); slots != slots0 {
				t.Fatalf("round %d roots %s: PB slots grew %d -> %d (per-round constraint churn is back)",
					round, rootsString(roots), slots0, slots)
			}
			if sess.solver.ActivePBs() > slots0 {
				t.Fatalf("round %d: active PBs %d exceed warmed slot count %d", round, sess.solver.ActivePBs(), slots0)
			}
		}
	}
}

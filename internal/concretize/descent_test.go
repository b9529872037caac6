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
// cold session and bisect once a warm first visit's linear probe
// improves, and a tightening round must never allocate a fresh solver
// variable or PB constraint slot.

// runDescentDifferential feeds one warm request stream through a session
// and through the cold one-shot path, requiring both to agree on
// satisfiability and optimal cost (and on picks when the family's optima
// are unique). Repeats within the stream drive the warm bound-memo path —
// the second visit to a shape descends from a proven bound, which is
// exactly the code path the cold oracle must still match.
func runDescentDifferential(t *testing.T, u *repo.Universe, gen func(rng *rand.Rand) []Root, nReqs int, exactPicks bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sess := NewSession(u)
	var replay [][]Root
	for i := 0; i < nReqs; i++ {
		var roots []Root
		if len(replay) > 0 && rng.Intn(3) == 0 {
			roots = replay[rng.Intn(len(replay))] // warm-bound repeat
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

// TestDescentNoPerRoundAllocation: the regression the tentpole exists to
// pin. A multi-round descent must allocate at most ONE solver variable
// (the per-request bound guard) and recycle PB constraint slots, no matter
// how many tightening rounds it runs — and a request that descends from an
// already-proven bound must allocate no variable at all.
func TestDescentNoPerRoundAllocation(t *testing.T) {
	u, root := repo.SynthVirtualDiamond(6, 3, 6)
	sess := NewSession(u)
	pool := [][]Root{
		{{Pkg: root}},
		{MustParseRoot("virtual:virt0")},
		{MustParseRoot("virt1@:4")},
		{MustParseRoot("virtual:virt2@2:")},
	}
	// Warm up: every shape gets its activation literal, bound memo entry,
	// and proven bound.
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

// TestBoundMemoRepeatRequestStable: a repeated identical request descends
// from its banked proven optimum — one SAT round, no bound constraint, no
// new variables, with no answer store in front of the session.
func TestBoundMemoRepeatRequestStable(t *testing.T) {
	u, root := repo.SynthDense(30, 6, 3, 3)
	sess := NewSession(u)
	roots := []Root{{Pkg: root}}
	// Two warmup requests: the first proves the optimum (ending in a
	// refutation round whose search trajectory perturbs the saved phases),
	// the second re-converges the phases onto the optimal model and ends
	// on a SAT round. From then on the stream is steady-state.
	first, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
		t.Fatal(err)
	}
	vars0, slots0 := sess.solver.NumVars(), sess.solver.PBSlots()
	for i := 0; i < 5; i++ {
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SolutionCacheHit {
			t.Fatal("cache disabled, yet served from cache")
		}
		if res.Stats.Cost != first.Stats.Cost || !res.Stats.Optimal {
			t.Fatalf("repeat %d: cost %d optimal=%v, want cost %d optimal", i, res.Stats.Cost, res.Stats.Optimal, first.Stats.Cost)
		}
		if !reflect.DeepEqual(res.Picks, first.Picks) {
			t.Fatalf("repeat %d: picks diverged", i)
		}
		if sess.solver.NumVars() != vars0 {
			t.Fatalf("repeat %d: NumVars %d -> %d (repeat request must not allocate)", i, vars0, sess.solver.NumVars())
		}
		if sess.solver.PBSlots() != slots0 {
			t.Fatalf("repeat %d: PBSlots %d -> %d", i, slots0, sess.solver.PBSlots())
		}
		if res.Stats.SolveCalls != 1 {
			t.Fatalf("repeat %d: %d solve calls, want 1 (descend from banked optimum)", i, res.Stats.SolveCalls)
		}
	}
}

// TestBoundMemoBanksZeroOptimum: a shape whose proven optimum is zero must
// still bank its bound — "proven >= 0" and "never proved anything" are
// different states, and conflating them would pin adaptive descent to the
// cold-path linear schedule for such shapes forever (re-exposing the
// phase-pollution pathology for e.g. lag-only objectives whose optimum
// picks all-newest at cost 0).
func TestBoundMemoBanksZeroOptimum(t *testing.T) {
	u, root := repo.SynthDense(20, 6, 3, 2)
	sess := NewSession(u)
	roots := []Root{{Pkg: root}}
	// Version-lag-only weights: the all-newest optimum costs exactly 0,
	// but models picking older versions cost more, so descent is armed.
	lagOnly := ObjectiveFunc{ID: "lag-only", Fn: func(req ObjectiveRequest) (map[string]PkgCost, error) {
		costs := make(map[string]PkgCost, len(req.Order))
		for _, name := range req.Order {
			p, _ := req.Universe.Package(name)
			pc := PkgCost{Version: make([]int64, p.NumVersions())}
			for i := range pc.Version {
				pc.Version[i] = int64(i)
			}
			costs[name] = pc
		}
		return costs, nil
	}}
	res, err := sess.Resolve(context.Background(), roots, Options{Objective: lagOnly})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cost != 0 || !res.Stats.Optimal {
		t.Fatalf("cost %d optimal=%v, want proven optimum 0", res.Stats.Cost, res.Stats.Optimal)
	}
	key := lagOnly.Key() + "\x00" + canonicalRootParts(roots)[0]
	ent, ok := sess.bounds.get(key)
	if !ok {
		t.Fatal("no bound memo entry for the shape")
	}
	if !ent.proven {
		t.Fatal("zero optimum was proven but not banked (proven flag unset)")
	}
	if ent.lo != 0 {
		t.Fatalf("banked lo = %d, want 0", ent.lo)
	}
}

package concretize

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// This file is the materialization suite: warm streams over every
// synthetic family checked against fresh cold Concretize calls, with the
// materialized package count pinned to the union of the requests'
// closures; churn streams where deltas park under unreached names; the
// encoder-coverage counters; and the registry-scale payoff (solver
// variables against the whole-universe floor). The answer checks mirror
// differential_test.go: monotone families compare pick-for-pick,
// adversarial ones on satisfiability and optimal cost with every answer
// independently verified.

// runLazyDifferentialGenStream fires one request stream through one warm
// session and through fresh Concretize calls (runDifferentialGenStream),
// replaying earlier shapes so cached answers are checked too. The session
// must then have materialized exactly the union of the stream's closures,
// as the brute-force oracle computes them.
func runLazyDifferentialGenStream(t *testing.T, rng *rand.Rand, u *repo.Universe, gen func(rng *rand.Rand) []Root, nReqs int, exactPicks bool) {
	t.Helper()
	reached := make(map[string]bool)
	se := runDifferentialGenStream(t, rng, u, func(rng *rand.Rand) []Root {
		roots := gen(rng)
		closure, _ := oracleClosure(u, roots)
		for name := range closure {
			reached[name] = true
		}
		return roots
	}, nReqs, exactPicks)
	if got := se.EncodingStats().MaterializedPackages; got != len(reached) {
		t.Fatalf("materialized %d packages, the stream's closures cover %d", got, len(reached))
	}
}

// TestLazyDifferentialMonotone: the strong check — a warm session must
// equal cold Concretize pick-for-pick across seeded monotone universes.
func TestLazyDifferentialMonotone(t *testing.T) {
	nUniverses := 60
	if testing.Short() {
		nUniverses = 12
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < nUniverses; i++ {
		pkgs := 4 + rng.Intn(14)
		versions := 1 + rng.Intn(5)
		depsPer := rng.Intn(4)
		seed := rng.Int63()
		u, _ := repo.SynthDense(pkgs, versions, depsPer, seed)
		gen := func(rng *rand.Rand) []Root { return diffRequest(rng, pkgs, versions) }
		t.Run(fmt.Sprintf("u%03d_p%d_v%d_d%d", i, pkgs, versions, depsPer), func(t *testing.T) {
			runLazyDifferentialGenStream(t, rng, u, gen, 10, true)
		})
	}
}

// TestLazyDifferentialConflicts: adversarial universes — satisfiability
// and optimal cost must agree; conflict clauses materialized on first
// reach by an earlier request must prune exactly as freshly encoded ones.
func TestLazyDifferentialConflicts(t *testing.T) {
	nUniverses := 40
	if testing.Short() {
		nUniverses = 8
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < nUniverses; i++ {
		pkgs := 4 + rng.Intn(12)
		versions := 2 + rng.Intn(4)
		depsPer := rng.Intn(4)
		conflictsPer := 1 + rng.Intn(3)
		seed := rng.Int63()
		u, _ := repo.SynthDenseConflicts(pkgs, versions, depsPer, conflictsPer, seed)
		gen := func(rng *rand.Rand) []Root { return diffRequest(rng, pkgs, versions) }
		t.Run(fmt.Sprintf("u%03d_p%d_v%d_d%d_c%d", i, pkgs, versions, depsPer, conflictsPer), func(t *testing.T) {
			runLazyDifferentialGenStream(t, rng, u, gen, 10, false)
		})
	}
}

// TestLazyDifferentialVirtualDiamond: provider selection under
// materialization — the selection clause for a virtual widens as later
// requests reach more providers, and must stay answer-identical to one
// encoded complete in a fresh session.
func TestLazyDifferentialVirtualDiamond(t *testing.T) {
	nUniverses := 30
	if testing.Short() {
		nUniverses = 6
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < nUniverses; i++ {
		virtuals := 1 + rng.Intn(3)
		providers := 1 + rng.Intn(3)
		versions := 1 + rng.Intn(4)
		u, _ := repo.SynthVirtualDiamond(virtuals, providers, versions)
		gen := func(rng *rand.Rand) []Root {
			return virtualDiamondRequest(rng, virtuals, providers, versions)
		}
		t.Run(fmt.Sprintf("u%03d_v%d_p%d_k%d", i, virtuals, providers, versions), func(t *testing.T) {
			runLazyDifferentialGenStream(t, rng, u, gen, 10, providers == 1)
		})
	}
}

// TestLazyDifferentialConditionalChain: trigger-guarded requirements —
// support literals widened by later materializations must behave exactly
// as freshly lowered ones, including the sat-flipping ccx/cc0 encounters.
func TestLazyDifferentialConditionalChain(t *testing.T) {
	nUniverses := 30
	if testing.Short() {
		nUniverses = 6
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < nUniverses; i++ {
		length := 2 + rng.Intn(5)
		versions := 1 + rng.Intn(4)
		u, _ := repo.SynthConditionalChain(length, versions)
		gen := func(rng *rand.Rand) []Root {
			return conditionalChainRequest(rng, length, versions, false)
		}
		t.Run(fmt.Sprintf("u%03d_l%d_k%d", i, length, versions), func(t *testing.T) {
			runLazyDifferentialGenStream(t, rng, u, gen, 10, false)
		})
	}
}

// registryRequest draws 1-2 roots over a SynthRegistry universe: mostly
// bare (the dominant registry workload), sometimes range-capped.
func registryRequest(rng *rand.Rand, pkgs, versions int) []Root {
	n := 1 + rng.Intn(2)
	roots := make([]Root, 0, n)
	for i := 0; i < n; i++ {
		roots = append(roots, MustParseRoot(rangeSpec(rng, fmt.Sprintf("reg%d", rng.Intn(pkgs)), versions)))
	}
	return roots
}

// TestLazyDifferentialRegistry: the registry family itself — sparse
// closures over a wide package space, where most of the universe stays
// unmaterialized for the whole stream.
func TestLazyDifferentialRegistry(t *testing.T) {
	nUniverses := 10
	if testing.Short() {
		nUniverses = 3
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < nUniverses; i++ {
		pkgs := 60 + rng.Intn(200)
		versions := 2 + rng.Intn(5)
		u, _ := repo.SynthRegistry(pkgs, versions)
		gen := func(rng *rand.Rand) []Root { return registryRequest(rng, pkgs, versions) }
		t.Run(fmt.Sprintf("u%03d_p%d_v%d", i, pkgs, versions), func(t *testing.T) {
			runLazyDifferentialGenStream(t, rng, u, gen, 12, true)
		})
	}
}

// Churn with materialization: the churner's delta streams through an
// extended session vs cold Concretize over the grown universe. Deltas routinely touch
// packages the session never materialized — the parking path — and later
// requests root them — the revival path.

// TestLazyChurnMonotone: the strong check under churn with
// materialization.
func TestLazyChurnMonotone(t *testing.T) {
	nUniverses := 25
	if testing.Short() {
		nUniverses = 5
	}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < nUniverses; i++ {
		pkgs := 4 + rng.Intn(10)
		versions := 1 + rng.Intn(4)
		depsPer := rng.Intn(4)
		seed := rng.Int63()
		u, _ := repo.SynthDense(pkgs, versions, depsPer, seed)
		t.Run(fmt.Sprintf("u%03d_p%d_v%d_d%d", i, pkgs, versions, depsPer), func(t *testing.T) {
			c := newChurner(rng, u, denseNames(pkgs), denseNames(pkgs))
			runChurnStream(t, c, 3, 4, true, SessionOptions{})
		})
	}
}

// TestLazyChurnVirtual: delta-added providers under lazy materialization —
// a new provider for a virtual the session has materialized must widen the
// live selection; one for an unreached virtual must park.
func TestLazyChurnVirtual(t *testing.T) {
	nUniverses := 12
	if testing.Short() {
		nUniverses = 3
	}
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < nUniverses; i++ {
		virtuals := 1 + rng.Intn(3)
		providers := 1 + rng.Intn(2)
		versions := 2 + rng.Intn(2)
		u, root := repo.SynthVirtualDiamond(virtuals, providers, versions)
		t.Run(fmt.Sprintf("u%03d_v%d_p%d_k%d", i, virtuals, providers, versions), func(t *testing.T) {
			targets := []string{root, "vbase"}
			rootable := append([]string{root}, u.VirtualNames()...)
			c := newChurner(rng, u, targets, rootable)
			runChurnStream(t, c, 3, 4, false, SessionOptions{})
		})
	}
}

// TestLazyChurnConditional: triggered dependencies under lazy churn.
func TestLazyChurnConditional(t *testing.T) {
	nUniverses := 12
	if testing.Short() {
		nUniverses = 3
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < nUniverses; i++ {
		length := 2 + rng.Intn(4)
		versions := 2 + rng.Intn(3)
		u, root := repo.SynthConditionalChain(length, versions)
		t.Run(fmt.Sprintf("u%03d_l%d_k%d", i, length, versions), func(t *testing.T) {
			targets := []string{root, "ctrl"}
			for j := 1; j < length; j++ {
				targets = append(targets, fmt.Sprintf("cc%d", j))
			}
			rootable := append([]string{}, targets...)
			rootable = append(rootable, "ccx")
			c := newChurner(rng, u, targets, rootable)
			runChurnStream(t, c, 3, 4, false, SessionOptions{})
		})
	}
}

// TestLazyEncodingStats pins the counter contract: a session covers
// nothing until a request reaches it, then exactly the union of reached
// subgraphs.
func TestLazyEncodingStats(t *testing.T) {
	u, root := repo.SynthRegistry(200, 4)

	lazy := NewSession(u, SessionOptions{})
	ls := lazy.EncodingStats()
	if ls.MaterializedPackages != 0 || ls.UniversePackages != 200 || ls.SolverVars != 0 {
		t.Fatalf("lazy stats before any request %+v: want zero coverage", ls)
	}

	if _, err := lazy.Resolve(context.Background(), []Root{{Pkg: root}}, Options{}); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	ls = lazy.EncodingStats()
	if ls.MaterializedPackages == 0 || ls.MaterializedPackages >= 200 || ls.SolverVars == 0 {
		t.Fatalf("lazy stats after one request %+v: want partial coverage", ls)
	}
}

// TestLazyDeltaParking pins the park/revive cycle end to end: a delta
// touching only unmaterialized packages must not disturb warm state (the
// stored answer stays fresh, nothing new materializes), and a later request
// rooting the parked package must see the delta's version.
func TestLazyDeltaParking(t *testing.T) {
	u, root := repo.SynthRegistry(300, 5)
	se := NewSession(u, SessionOptions{})
	store := NewAnswers(AnswersPerSession)

	res1, err := storeResolve(store, se, []Root{{Pkg: root}}, Options{})
	if err != nil {
		t.Fatalf("Resolve %s: %v", root, err)
	}
	before := se.EncodingStats()

	// reg150 is outside reg0's closure (its own block plus the hub tier).
	if before.MaterializedPackages == 0 {
		t.Fatal("nothing materialized")
	}
	d := repo.NewDelta()
	d.Add("reg150", "6.0")
	storeExtend(t, store, se, d)

	res2, err := storeResolve(store, se, []Root{{Pkg: root}}, Options{})
	if err != nil {
		t.Fatalf("Resolve %s after delta: %v", root, err)
	}
	if !res2.Stats.SolutionCacheHit {
		t.Fatal("delta on an unreached package invalidated an untouched stored answer")
	}
	if res2.Stats.Cost != res1.Stats.Cost {
		t.Fatalf("cost changed across unrelated delta: %d -> %d", res1.Stats.Cost, res2.Stats.Cost)
	}
	after := se.EncodingStats()
	if after.MaterializedPackages != before.MaterializedPackages {
		t.Fatalf("delta on an unreached package materialized it: %d -> %d packages",
			before.MaterializedPackages, after.MaterializedPackages)
	}

	// Rooting the parked package must revive the delta: its newest version
	// is the delta-added 6.0.
	res3, err := se.Resolve(context.Background(), []Root{{Pkg: "reg150"}}, Options{})
	if err != nil {
		t.Fatalf("Resolve reg150: %v", err)
	}
	if got := res3.Picks["reg150"].String(); got != "6.0" {
		t.Fatalf("reg150 resolved to %s, want the delta-added 6.0", got)
	}
	if err := verify(u, []Root{{Pkg: "reg150"}}, res3.Picks); err != nil {
		t.Fatalf("revived answer invalid: %v", err)
	}
	if st := se.EncodingStats(); st.MaterializedPackages <= after.MaterializedPackages {
		t.Fatal("rooting a parked package materialized nothing")
	}
}

// heapAlloc samples the live heap after a full GC.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestLazyRegistryScaling is the payoff test: a session must stay an
// order of magnitude under the whole-universe variable floor — one
// installed plus one per-version variable per package, pkgs*(versions+1),
// which is what encoding the catalog would cost — at a paired scale whose
// answer a second session confirms, and at full registry scale (10000
// packages x 100 versions).
func TestLazyRegistryScaling(t *testing.T) {
	const pkgs, versions = 2500, 16
	u, root := repo.SynthRegistry(pkgs, versions)
	roots := []Root{{Pkg: root}}

	lazy := NewSession(u, SessionOptions{})
	lres, err := lazy.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("lazy Resolve: %v", err)
	}
	cold, err := Concretize(u, roots, Options{})
	if err != nil {
		t.Fatalf("Concretize: %v", err)
	}
	if lres.Stats.Cost != cold.Stats.Cost || !reflect.DeepEqual(pickStrings(lres), pickStrings(cold)) {
		t.Fatalf("answers differ: session cost %d %v, cold cost %d %v",
			lres.Stats.Cost, pickStrings(lres), cold.Stats.Cost, pickStrings(cold))
	}
	floor := pkgs * (versions + 1)
	ls := lazy.EncodingStats()
	if ls.SolverVars*10 > floor {
		t.Fatalf("lazy %d vars vs whole-universe floor %d: want >= 10x fewer", ls.SolverVars, floor)
	}
	t.Logf("paired %dx%d: %d vars vs floor %d (%.0fx)",
		pkgs, versions, ls.SolverVars, floor, float64(floor)/float64(ls.SolverVars))

	if testing.Short() || raceEnabled {
		t.Skip("full-scale registry: skipped under -short and -race")
	}
	uFull, rootFull := repo.SynthRegistry(10000, 100)
	lazyFull := NewSession(uFull, SessionOptions{})
	for _, spec := range []string{rootFull, "reg5000"} {
		res, err := lazyFull.Resolve(context.Background(), []Root{MustParseRoot(spec)}, Options{})
		if err != nil {
			t.Fatalf("full-scale Resolve %s: %v", spec, err)
		}
		if !res.Stats.Optimal {
			t.Fatalf("full-scale %s: not optimal", spec)
		}
	}
	fs := lazyFull.EncodingStats()
	eagerFloor := 10000 * 101
	if fs.SolverVars*10 > eagerFloor {
		t.Fatalf("full-scale lazy %d vars vs eager floor %d: want >= 10x fewer", fs.SolverVars, eagerFloor)
	}
	if fs.MaterializedPackages*20 > fs.UniversePackages {
		t.Fatalf("full-scale materialized %d of %d packages: want < 5%%", fs.MaterializedPackages, fs.UniversePackages)
	}
	t.Logf("full 10000x100: %d of %d packages, %d vars (eager floor %d, %.0fx)",
		fs.MaterializedPackages, fs.UniversePackages, fs.SolverVars, eagerFloor,
		float64(eagerFloor)/float64(fs.SolverVars))
}

// TestLazySessionHammer races 8 resolving goroutines against a stream of
// Extends on one lazy session over a registry universe: materialization,
// parking, revival, cache sweeps, and the stats mirrors all interleave.
// Answers are checked for internal consistency only (the universe mutates
// concurrently, so no external oracle applies).
func TestLazySessionHammer(t *testing.T) {
	const workers = 8
	u, _ := repo.SynthRegistry(400, 4)
	se := NewSession(u, SessionOptions{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				roots := registryRequest(rng, 400, 4)
				res, err := se.Resolve(context.Background(), roots, Options{})
				switch {
				case err != nil && !errors.Is(err, ErrUnsatisfiable):
					t.Errorf("worker %d: %v", w, err)
					return
				case err == nil && !res.Stats.Optimal:
					t.Errorf("worker %d: non-optimal without a budget", w)
					return
				case err == nil && len(res.Picks) == 0:
					t.Errorf("worker %d: empty picks", w)
					return
				}
			}
		}()
	}

	// Delta stream: new versions on scattered packages — some materialized
	// by the workers, most parked — plus the stats reader.
	for i := 0; i < 30; i++ {
		d := repo.NewDelta()
		d.Add(fmt.Sprintf("reg%d", (i*37)%400), fmt.Sprintf("%d.0", 100+i))
		if _, err := se.Extend(d); err != nil {
			t.Errorf("Extend %d: %v", i, err)
			break
		}
		st := se.EncodingStats()
		if st.UniversePackages < 400 || st.MaterializedPackages > st.UniversePackages {
			t.Errorf("inconsistent stats %+v", st)
			break
		}
	}
	close(stop)
	wg.Wait()
}

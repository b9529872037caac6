package concretize

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// This file pins seedPhases' greedy, objective-priced first-visit seed:
// on the families below verify accepts it and it is already optimal, so
// the descent starts from it and ends after one refutation, or with none
// when it costs the shape's floor; and the walk that builds the seed
// allocates nothing per dependency.

// TestSeedNewRootVersionCold: a fresh session on a universe whose newest
// root version reaches far less than the older ones (SynthDiamond(40, 8)
// grown by app@99.0 -> mid0) starts from the cheap model, so one
// refutation closes it. Seeding only the reached packages' newest versions
// installed every one of them, and the descent walked 42, 41, 20, 9, 4
// and 3 down to the optimum.
func TestSeedNewRootVersionCold(t *testing.T) {
	u, _ := repo.SynthDiamond(40, 8)
	u.Add("app", "99.0", repo.Dep("mid0", ":"))
	app := []Root{MustParseRoot("app")}
	res, err := resolveWithin(t, NewSession(u), app)
	if err != nil {
		t.Fatalf("app: %v", err)
	}
	if res.Stats.SolveCalls != 1 || res.Stats.Cost != 3 {
		t.Errorf("app took %d solve calls (%d models, %d decisions) at cost %d; want 1 call at cost 3",
			res.Stats.SolveCalls, res.Stats.Improvements, res.Stats.Decisions, res.Stats.Cost)
	}
	cold := mustConcretize(t, u, app)
	if !reflect.DeepEqual(res.Picks, cold.Picks) {
		t.Errorf("session picks %v, Concretize picks %v", pickStrings(res), pickStrings(cold))
	}
}

// TestSeedVirtualDiamondOneShot: a one-shot Concretize of a virtual
// diamond seeds one provider per virtual instead of every provider's
// newest version, so its seed is optimal and one refutation closes it.
func TestSeedVirtualDiamondOneShot(t *testing.T) {
	u, root := repo.SynthVirtualDiamond(6, 3, 6)
	res := mustConcretize(t, u, []Root{MustParseRoot(root)})
	if res.Stats.SolveCalls != 1 {
		t.Errorf("Concretize took %d solve calls (%d models, %d conflicts), want 1",
			res.Stats.SolveCalls, res.Stats.Improvements, res.Stats.Conflicts)
	}
}

// reuseSwapRequest is one minimal-change request of the provider-swap
// stream: the roots and the installed profile they are priced against.
type reuseSwapRequest struct {
	roots []Root
	obj   Objective
}

// reuseSwapDraw draws n distinct request shapes exactly as the end-to-end
// benchmark's reuse-swap workload does (bench/workloads.go, reuseSwap) over
// SynthVirtualDiamond(8, 3, 8): a consistent installed profile (app, one
// provider per virtual, vbase), and for about half of the requests a
// second root naming another provider of one virtual, the provider swap.
func reuseSwapDraw(rng *rand.Rand, n int) []reuseSwapRequest {
	const virts, provs, vers = 8, 3, 8
	ver := func(k int) version.Version { return version.MustParse(fmt.Sprintf("%d.0", k)) }
	seen := map[string]bool{}
	var out []reuseSwapRequest
	for len(out) < n {
		app := 1 + rng.Intn(vers)
		inst := repo.Profile{"app": ver(app)}
		chosen := make([]int, virts)
		low := app
		for v := range chosen {
			chosen[v] = rng.Intn(provs)
			k := 1 + rng.Intn(app)
			low = min(low, k)
			inst[fmt.Sprintf("prov%d_%d", v, chosen[v])] = ver(k)
		}
		inst["vbase"] = ver(1 + rng.Intn(low))
		roots := []Root{MustParseRoot("app")}
		if rng.Intn(2) == 0 {
			v := rng.Intn(virts)
			swap := (chosen[v] + 1 + rng.Intn(provs-1)) % provs
			roots = append(roots, MustParseRoot(fmt.Sprintf("prov%d_%d", v, swap)))
		}
		obj := MinimalChange(inst)
		if key := ShapeKey(obj, roots); !seen[key] {
			seen[key] = true
			out = append(out, reuseSwapRequest{roots: roots, obj: obj})
		}
	}
	return out
}

// TestSeedReuseSwapFirstModels replays the provider-swap stream on one
// default session: every request is a new shape, so every one is a first
// visit seeded from MinimalChange's prices, which keep installed packages
// at their installed versions. Every answer costs what a fresh Concretize
// returns, and the first model is nearly always the optimum. A seed of
// newest versions with nothing installed found an optimal first model for
// none of these 200 requests and took 12.76 solve calls per request. The
// seed keeps every package at the cheapest state the roots allow, so it
// costs the shape's floor, which proves it optimal with no solve call. The
// solver is deterministic, so the counts repeat exactly (all 200 first
// models optimal, all 200 closed by the floor; 193 first models optimal
// and 2.35 calls while the seed left out installed packages nothing
// requires); the bounds leave room for a change to the solver's tie order
// or learnt-clause policy to move a few requests without failing a seed
// that still does its job.
func TestSeedReuseSwapFirstModels(t *testing.T) {
	u, _ := repo.SynthVirtualDiamond(8, 3, 8)
	reqs := reuseSwapDraw(rand.New(rand.NewSource(1)), 200)
	se := NewSession(u)
	firstOptimal, floorClosed, calls, conflicts := 0, 0, 0, int64(0)
	for i, rq := range reqs {
		opts := Options{Objective: rq.obj}
		res, err := se.Resolve(context.Background(), rq.roots, opts)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, rootsString(rq.roots), err)
		}
		cold, err := Concretize(u, rq.roots, opts)
		if err != nil {
			t.Fatalf("request %d (%s): cold: %v", i, rootsString(rq.roots), err)
		}
		if res.Stats.Cost != cold.Stats.Cost {
			t.Errorf("request %d (%s): session cost %d, Concretize cost %d",
				i, rootsString(rq.roots), res.Stats.Cost, cold.Stats.Cost)
		}
		if res.Stats.Improvements == 1 {
			firstOptimal++
		}
		if res.Stats.SolveCalls == 0 {
			floorClosed++
		}
		calls += res.Stats.SolveCalls
		conflicts += res.Stats.Conflicts
	}
	n := len(reqs)
	t.Logf("%d requests: first model optimal on %d, no solve call on %d, %.2f solve calls and %.2f conflicts per request",
		n, firstOptimal, floorClosed, float64(calls)/float64(n), float64(conflicts)/float64(n))
	if firstOptimal < 190 {
		t.Errorf("first model optimal on %d of %d requests, want at least 190", firstOptimal, n)
	}
	if floorClosed < 190 {
		t.Errorf("the floor closed %d of %d requests with no solve call, want at least 190", floorClosed, n)
	}
	if float64(calls) > 3*float64(n) {
		t.Errorf("%.2f solve calls per request, want at most 3", float64(calls)/float64(n))
	}
}

// keptProviderRequest is a provider-swap request of the reuse-swap
// stream whose installed app, 8.0, is the newest: the swapped-in root
// prov2_1's newest version meets app's requirement on the second
// virtual, so nothing requires the installed provider prov2_0, which the
// optimum keeps at 3.0.
func keptProviderRequest() ([]Root, Objective) {
	inst := repo.Profile{}
	for pkg, v := range map[string]string{
		"app": "8.0", "prov0_0": "7.0", "prov1_1": "6.0", "prov2_0": "3.0", "prov3_0": "6.0",
		"prov4_1": "4.0", "prov5_0": "5.0", "prov6_0": "6.0", "prov7_2": "4.0", "vbase": "2.0",
	} {
		inst[pkg] = version.MustParse(v)
	}
	return []Root{MustParseRoot("app"), MustParseRoot("prov2_1")}, MinimalChange(inst)
}

// TestSeedKeepsUnrequiredInstalled: the seed keeps an installed package
// nothing requires, because MinimalChange prices leaving it out at a
// change step. It then keeps every package at the cheapest state the
// roots allow, so it costs the shape's floor and needs no solve call.
// Choosing only what the roots' walk requires seeded prov2_0 uninstalled,
// so the first model cost a change step above the optimum and the request
// took 12 solve calls, 2 models and 11 conflicts.
func TestSeedKeepsUnrequiredInstalled(t *testing.T) {
	u, _ := repo.SynthVirtualDiamond(8, 3, 8)
	roots, obj := keptProviderRequest()
	res, err := NewSession(u).Resolve(context.Background(), roots, Options{Objective: obj})
	if err != nil {
		t.Fatalf("%s: %v", rootsString(roots), err)
	}
	if res.Stats.SolveCalls != 0 || res.Stats.Improvements != 1 || res.Stats.Cost != 795 {
		t.Errorf("%s took %d solve calls (%d models, %d conflicts) at cost %d; want 0 calls, 1 model, cost 795",
			rootsString(roots), res.Stats.SolveCalls, res.Stats.Improvements, res.Stats.Conflicts, res.Stats.Cost)
	}
	if got, ok := res.Picks["prov2_0"]; !ok || got.String() != "3.0" {
		t.Errorf("prov2_0 picked %v (present %v), want it kept at 3.0", got, ok)
	}
}

// seedInputs resolves roots on sess, so their closure is materialized, and
// returns the reach order and costs seedPhases takes for them.
func seedInputs(t *testing.T, sess *Session, roots []Root, obj Objective) ([]string, map[string]PkgCost) {
	t.Helper()
	if _, err := sess.Resolve(context.Background(), roots, Options{Objective: obj}); err != nil {
		t.Fatalf("%s: %v", rootsString(roots), err)
	}
	order, _, err := reachable(sess.u, roots)
	if err != nil {
		t.Fatalf("%s: reachable: %v", rootsString(roots), err)
	}
	costs, err := obj.Costs(ObjectiveRequest{Universe: sess.u, Order: order, Roots: roots})
	if err != nil {
		t.Fatalf("%s: Costs: %v", rootsString(roots), err)
	}
	return order, costs
}

// TestSeedKeptPackageWalksItsDependencies: a package the seed keeps
// because leaving it out costs a change step has its dependencies walked
// like any other choice. The root prov2 meets app's requirement on mpi,
// so nothing requires the installed prov1, whose dependency on lib@:1 no
// other choice reaches; the seed must choose lib at 1.0.
func TestSeedKeptPackageWalksItsDependencies(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("mpi", ":"))
	u.Add("prov1", "1.0", repo.Prov("mpi", "1.0"), repo.Dep("lib", ":1"))
	u.Add("prov2", "1.0", repo.Prov("mpi", "1.0"))
	u.Add("lib", "2.0")
	u.Add("lib", "1.0")
	roots := []Root{MustParseRoot("app"), MustParseRoot("prov2")}
	obj := MinimalChange(repo.Profile{"app": version.MustParse("1.0"), "prov1": version.MustParse("1.0")})
	sess := NewSession(u)
	order, costs := seedInputs(t, sess, roots, obj)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.seedPhases(order, roots, costs)
	for pkg, want := range map[string]int{"app": 0, "prov1": 0, "prov2": 0, "lib": 1} {
		if got, ok := sess.seedBuf[pkg]; !ok || got != want {
			t.Errorf("seed chose %s at version index %d (chosen %v), want %d", pkg, got, ok, want)
		}
	}
}

// TestSeedProviderFromSomeVersions: provider packages that provide the
// virtual from only some of their versions, so an entry's version index
// is not its position in its package's group of the provider index. For
// app's mpi@:1 the walk must choose bprov at 2.0 (index 1, the cheapest
// in-range entry) over aprov at 2.0 (index 2), and then see that choice
// satisfy lib's mpi@1 instead of choosing aprov as well. The seed is a
// resolution, so one refutation closes the request.
func TestSeedProviderFromSomeVersions(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("mpi", ":1"), repo.Dep("lib", ":"))
	u.Add("lib", "1.0", repo.Dep("mpi", "1"))
	u.Add("aprov", "4.0", repo.Prov("mpi", "2.0"))
	u.Add("aprov", "3.0")
	u.Add("aprov", "2.0", repo.Prov("mpi", "1.0"))
	u.Add("bprov", "3.0")
	u.Add("bprov", "2.0", repo.Prov("mpi", "1.0"))
	roots := []Root{MustParseRoot("app")}
	sess := NewSession(u)
	order, costs := seedInputs(t, sess, roots, DefaultObjective)
	sess.mu.Lock()
	sess.seedPhases(order, roots, costs)
	got := maps.Clone(sess.seedBuf)
	sess.mu.Unlock()
	if want := map[string]int{"app": 0, "lib": 0, "bprov": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("seed chose version indices %v, want %v", got, want)
	}
	res := mustConcretize(t, u, roots)
	if want := map[string]string{"app": "1.0", "lib": "1.0", "bprov": "2.0"}; !reflect.DeepEqual(pickStrings(res), want) {
		t.Errorf("picks %v, want %v", pickStrings(res), want)
	}
	if res.Stats.SolveCalls != 1 || res.Stats.Improvements != 1 {
		t.Errorf("took %d solve calls and %d models, want the seed and 1 refutation", res.Stats.SolveCalls, res.Stats.Improvements)
	}
}

// TestSeedClosedByFloor: a seed priced at the shape's cost floor returns
// with no solve call, at the cost any model with its picks has. The floor
// prices a root naming a package at Install plus its cheapest version
// inside the root's range (lib@:2 must install 2.0 or 1.0), and the seed's
// price counts Omit for each reached package it leaves out (old, reached
// through app@1.0, costs 3 to leave out and 10 to install).
func TestSeedClosedByFloor(t *testing.T) {
	ranged := repo.New()
	for _, v := range []string{"3.0", "2.0", "1.0"} {
		ranged.Add("lib", v)
	}
	omitted := repo.New()
	omitted.Add("app", "2.0", repo.Dep("lib", ":"))
	omitted.Add("app", "1.0", repo.Dep("old", ":"))
	omitted.Add("lib", "1.0")
	omitted.Add("old", "1.0")
	omitOld := ObjectiveFunc{ID: "omit-old", Fn: func(ObjectiveRequest) (map[string]PkgCost, error) {
		return map[string]PkgCost{"old": {Install: 10, Omit: 3}}, nil
	}}
	for _, tc := range []struct {
		name  string
		u     *repo.Universe
		root  string
		obj   Objective
		picks map[string]string
		cost  int64
	}{
		{"ranged root", ranged, "lib@:2", DefaultObjective, map[string]string{"lib": "2.0"}, 3},
		{"omitted package", omitted, "app", omitOld, map[string]string{"app": "2.0", "lib": "1.0"}, 3},
	} {
		res, err := Concretize(tc.u, []Root{MustParseRoot(tc.root)}, Options{Objective: tc.obj})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pickStrings(res); !reflect.DeepEqual(got, tc.picks) || res.Stats.Cost != tc.cost {
			t.Errorf("%s: picks %v at cost %d, want %v at cost %d", tc.name, got, res.Stats.Cost, tc.picks, tc.cost)
		}
		if res.Stats.SolveCalls != 0 || res.Stats.Improvements != 1 {
			t.Errorf("%s: %d solve calls and %d models, want the seed alone", tc.name, res.Stats.SolveCalls, res.Stats.Improvements)
		}
	}
}

// TestSeedClosedByFloorOnRepeat: a session memoizes no bound per request
// shape, so each repeat of a shape with no answer store in front is solved
// as its first visit was: the seed, priced at the floor, closes it with no
// solve call and no new solver variable, at the first visit's picks and
// cost. A version-lag objective, whose all-newest optimum costs 0, gives a
// zero floor, which proves the seed optimal as any other floor does.
func TestSeedClosedByFloorOnRepeat(t *testing.T) {
	ranged := repo.New()
	for _, v := range []string{"3.0", "2.0", "1.0"} {
		ranged.Add("lib", v)
	}
	dense, denseRoot := repo.SynthDense(20, 6, 3, 2)
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
	for _, tc := range []struct {
		name string
		u    *repo.Universe
		root string
		obj  Objective
		cost int64
	}{
		{"ranged root", ranged, "lib@:2", DefaultObjective, 3},
		{"zero floor", dense, denseRoot, lagOnly, 0},
	} {
		sess := NewSession(tc.u)
		roots := []Root{MustParseRoot(tc.root)}
		var first *Resolution
		vars := 0
		for visit := 0; visit < 3; visit++ {
			res, err := sess.Resolve(context.Background(), roots, Options{Objective: tc.obj})
			if err != nil {
				t.Fatalf("%s visit %d: %v", tc.name, visit, err)
			}
			if res.Stats.Cost != tc.cost || !res.Stats.Optimal || res.Stats.SolutionCacheHit {
				t.Fatalf("%s visit %d: cost %d optimal=%v hit=%v, want an optimal solve at cost %d",
					tc.name, visit, res.Stats.Cost, res.Stats.Optimal, res.Stats.SolutionCacheHit, tc.cost)
			}
			if res.Stats.SolveCalls != 0 || res.Stats.Improvements != 1 {
				t.Errorf("%s visit %d: %d solve calls and %d models, want the seed alone",
					tc.name, visit, res.Stats.SolveCalls, res.Stats.Improvements)
			}
			if visit == 0 {
				first, vars = res, sess.solver.NumVars()
				continue
			}
			if !reflect.DeepEqual(pickStrings(res), pickStrings(first)) {
				t.Errorf("%s visit %d: picks %v, want the first visit's %v", tc.name, visit, pickStrings(res), pickStrings(first))
			}
			if got := sess.solver.NumVars(); got != vars {
				t.Errorf("%s visit %d: NumVars %d -> %d, want no new variable", tc.name, visit, vars, got)
			}
		}
	}
}

// TestSeedTightCapFirstVisits: first visits of tight registry packages
// (every fourth, whose own dependencies are capped) capped at 1-7 on the
// prewarmed registry session. A cap that binds forces lags on the root's
// capped dependencies, which the walk takes from the chosen root version's
// own ranges, so each visit takes one model and answers as Concretize.
// Where verify accepts the seed, that model is the seed and one refutation
// closes the visit (27 of the 40). Where it rejects the seed (the walk met
// a tighter range on a dependency it had already chosen newer), the scope
// order and the seeded phases still make the search's first model optimal,
// so the visit takes one model and one refutation: 2 calls. A seed of
// newest versions took 2 calls on 28 of these 40 (worst 16,626 conflicts),
// and this seed without the branch heap's scope-rank tie-break on 34
// (worst 45,438).
func TestSeedTightCapFirstVisits(t *testing.T) {
	u, _ := repo.SynthRegistry(firstVisitPkgs, firstVisitVers)
	sess := newFirstVisitSession(t, u)
	worst, accepted := int64(0), 0
	for k := 0; k < 40; k++ {
		roots := []Root{MustParseRoot(fmt.Sprintf("reg%d@:%d", 4*k, 1+k%7))}
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatalf("%s: %v", rootsString(roots), err)
		}
		worst = max(worst, res.Stats.Conflicts)
		if res.Stats.SolveCalls == 1 {
			accepted++
		}
		if res.Stats.Improvements != 1 || res.Stats.SolveCalls < 1 || res.Stats.SolveCalls > 2 {
			t.Errorf("%s: first visit took %d solve calls (%d models, %d conflicts), want 1 model and 1 or 2 calls",
				rootsString(roots), res.Stats.SolveCalls, res.Stats.Improvements, res.Stats.Conflicts)
		}
		cold := mustConcretize(t, u, roots)
		if !reflect.DeepEqual(res.Picks, cold.Picks) {
			t.Fatalf("%s: session picks diverge from Concretize:\n%v\n%v", rootsString(roots), res.Picks, cold.Picks)
		}
	}
	t.Logf("worst first visit: %d conflicts; %d of 40 took 1 solve call", worst, accepted)
	if accepted < 27 {
		t.Errorf("%d of 40 first visits took 1 solve call, want at least 27", accepted)
	}
}

// TestSeedPhasesAllocs: seeding a first visit allocates nothing per
// dependency, on a registry first visit and on the minimal-change provider
// swap whose seed keeps an installed package nothing requires. The walk
// reads candidates in place (roots included) and keeps its chosen map and
// queue as session scratch, so it makes no allocation at all; the bound
// is the two the newest-version seed spent copying a root's candidate
// list. Building a candidate list per dependency instead makes 159 on the
// registry request.
func TestSeedPhasesAllocs(t *testing.T) {
	reg, _ := repo.SynthRegistry(firstVisitPkgs, firstVisitVers)
	swap, _ := repo.SynthVirtualDiamond(8, 3, 8)
	swapRoots, swapObj := keptProviderRequest()
	for _, tc := range []struct {
		name  string
		sess  *Session
		roots []Root
		obj   Objective
	}{
		{"registry", newFirstVisitSession(t, reg), []Root{MustParseRoot("reg49")}, DefaultObjective},
		{"kept-provider", NewSession(swap), swapRoots, swapObj},
	} {
		sess, roots := tc.sess, tc.roots
		order, costs := seedInputs(t, sess, roots, tc.obj)
		sess.mu.Lock()
		allocs := testing.AllocsPerRun(100, func() { sess.seedPhases(order, roots, costs) })
		sess.mu.Unlock()
		if allocs > 2 {
			t.Errorf("%s: seedPhases over %d reached packages made %.0f allocations, want at most 2", tc.name, len(order), allocs)
		}
	}
}

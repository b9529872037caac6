package concretize

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// This file pins seedPhases' greedy, objective-priced first-visit seed:
// the first model a shape's first visit finds is already optimal on the
// families below, so the descent ends after one refutation, and the walk
// that builds the seed allocates nothing per dependency.

// TestSeedNewRootVersionCold: a fresh session on a universe whose newest
// root version reaches far less than the older ones (SynthDiamond(40, 8)
// grown by app@99.0 -> mid0) finds the cheap model first. Seeding only the
// reached packages' newest versions installed every one of them, and the
// descent walked 42, 41, 20, 9, 4 and 3 down to the optimum.
func TestSeedNewRootVersionCold(t *testing.T) {
	u, _ := repo.SynthDiamond(40, 8)
	u.Add("app", "99.0", repo.Dep("mid0", ":"))
	app := []Root{MustParseRoot("app")}
	res, err := resolveWithin(t, NewSession(u, SessionOptions{}), app)
	if err != nil {
		t.Fatalf("app: %v", err)
	}
	if res.Stats.SolveCalls != 2 || res.Stats.Cost != 3 {
		t.Errorf("app took %d solve calls (%d models, %d decisions) at cost %d; want 2 calls at cost 3",
			res.Stats.SolveCalls, res.Stats.Improvements, res.Stats.Decisions, res.Stats.Cost)
	}
	cold := mustConcretize(t, u, app)
	if !reflect.DeepEqual(res.Picks, cold.Picks) {
		t.Errorf("session picks %v, Concretize picks %v", pickStrings(res), pickStrings(cold))
	}
}

// TestSeedVirtualDiamondOneShot: a one-shot Concretize of a virtual
// diamond seeds one provider per virtual instead of every provider's
// newest version, so its first model is optimal.
func TestSeedVirtualDiamondOneShot(t *testing.T) {
	u, root := repo.SynthVirtualDiamond(6, 3, 6)
	res := mustConcretize(t, u, []Root{MustParseRoot(root)})
	if res.Stats.SolveCalls != 2 {
		t.Errorf("Concretize took %d solve calls (%d models, %d conflicts), want 2",
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
// solver is deterministic, so the counts repeat exactly (193 optimal first
// models, 2.35 calls per request); the bounds leave room for a change to
// the solver's tie order or learnt-clause policy to move a few requests
// without failing a seed that still does its job.
func TestSeedReuseSwapFirstModels(t *testing.T) {
	u, _ := repo.SynthVirtualDiamond(8, 3, 8)
	reqs := reuseSwapDraw(rand.New(rand.NewSource(1)), 200)
	se := NewSession(u, SessionOptions{})
	firstOptimal, calls, conflicts := 0, 0, int64(0)
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
		calls += res.Stats.SolveCalls
		conflicts += res.Stats.Conflicts
	}
	n := len(reqs)
	t.Logf("%d requests: first model optimal on %d, %.2f solve calls and %.2f conflicts per request",
		n, firstOptimal, float64(calls)/float64(n), float64(conflicts)/float64(n))
	if firstOptimal < 190 {
		t.Errorf("first model optimal on %d of %d requests, want at least 190", firstOptimal, n)
	}
	if float64(calls) > 3*float64(n) {
		t.Errorf("%.2f solve calls per request, want at most 3", float64(calls)/float64(n))
	}
}

// TestSeedTightCapFirstVisits: first visits of tight registry packages
// (every fourth, whose own dependencies are capped) capped at 1-7 on the
// prewarmed registry session. A cap that binds forces lags on the root's
// capped dependencies, which the walk takes from the chosen root
// version's own ranges, so each visit takes one model and one
// refutation, and answers as Concretize. A seed of newest versions took 2
// calls on 28 of these 40 (worst 16,626 conflicts), and this seed without
// the branch heap's scope-rank tie-break on 34 (worst 45,438).
func TestSeedTightCapFirstVisits(t *testing.T) {
	u, _ := repo.SynthRegistry(firstVisitPkgs, firstVisitVers)
	sess := newFirstVisitSession(t, u)
	worst := int64(0)
	for k := 0; k < 40; k++ {
		roots := []Root{MustParseRoot(fmt.Sprintf("reg%d@:%d", 4*k, 1+k%7))}
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatalf("%s: %v", rootsString(roots), err)
		}
		worst = max(worst, res.Stats.Conflicts)
		if res.Stats.SolveCalls != 2 {
			t.Errorf("%s: first visit took %d solve calls (%d models, %d conflicts), want 2",
				rootsString(roots), res.Stats.SolveCalls, res.Stats.Improvements, res.Stats.Conflicts)
		}
		cold := mustConcretize(t, u, roots)
		if !reflect.DeepEqual(res.Picks, cold.Picks) {
			t.Fatalf("%s: session picks diverge from Concretize:\n%v\n%v", rootsString(roots), res.Picks, cold.Picks)
		}
	}
	t.Logf("worst first visit: %d conflicts", worst)
}

// TestSeedPhasesAllocs: seeding a registry first visit allocates nothing
// per dependency. The walk reads candidates in place (roots included) and
// keeps its chosen map and queue as session scratch, so it makes no
// allocation at all; the bound is the two the newest-version seed spent
// copying a root's candidate list. Building a candidate list per
// dependency instead makes 159 on this request.
func TestSeedPhasesAllocs(t *testing.T) {
	u, _ := repo.SynthRegistry(firstVisitPkgs, firstVisitVers)
	sess := newFirstVisitSession(t, u)
	roots := []Root{MustParseRoot("reg49")}
	if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
		t.Fatalf("reg49: %v", err)
	}
	order, _, err := reachable(u, roots)
	if err != nil {
		t.Fatalf("reachable: %v", err)
	}
	costs, err := DefaultObjective.Costs(ObjectiveRequest{Universe: u, Order: order, Roots: roots})
	if err != nil {
		t.Fatalf("Costs: %v", err)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	allocs := testing.AllocsPerRun(100, func() { sess.seedPhases(order, roots, costs) })
	if allocs > 2 {
		t.Errorf("seedPhases over %d reached packages made %.0f allocations, want at most 2", len(order), allocs)
	}
}

package concretize

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/internal/sat"
	"github.com/paper-repo-growth/go-arxiv/internal/version"
)

// This file pins request-scoped decisions: a warm session's solver
// branches only on the variables of the request's reach set, however much
// else earlier requests materialized or deltas added, and answers as a
// fresh session does.

// TestSessionScopeDecisionsStayInReach: a request whose whole reach set is
// forced by propagation makes no decision on a session that has
// materialized hundreds of unrelated packages, and answers as a fresh
// session does.
func TestSessionScopeDecisionsStayInReach(t *testing.T) {
	u, _ := repo.SynthRegistry(300, 6)
	const chain = 8
	for i := 0; i < chain; i++ {
		var decls []repo.Decl
		if i+1 < chain {
			decls = append(decls, repo.Dep(fmt.Sprintf("chain%d", i+1), ":"))
		}
		u.Add(fmt.Sprintf("chain%d", i), "1.0", decls...)
	}
	se := NewSession(u)
	for i := 0; i < 300; i += 37 {
		if _, err := se.Resolve(context.Background(), []Root{MustParseRoot(fmt.Sprintf("reg%d", i))}, Options{}); err != nil {
			t.Fatalf("warm-up reg%d: %v", i, err)
		}
	}
	if got := se.EncodingStats().MaterializedPackages; got < 100 {
		t.Fatalf("warm-up materialized %d packages; want a session far larger than the request", got)
	}
	roots := []Root{MustParseRoot("chain0")}
	res, err := se.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("chain0: %v", err)
	}
	if res.Stats.Decisions != 0 {
		t.Errorf("chain0 made %d decisions over %d solver variables; its reach set is forced by propagation", res.Stats.Decisions, res.Stats.Variables)
	}
	if len(res.Picks) != chain {
		t.Errorf("chain0 picks %v, want all %d chain packages", pickStrings(res), chain)
	}
	assertWarmMatchesCold(t, se, u, roots, "chain0")
}

// TestExtendScopeNewDependencyTarget: a delta adds a version of a
// materialized package whose dependency names a package no request has
// reached. The next request picks the new version with its new
// dependency, every answer matches a fresh session's, and a request on
// an untouched shape makes no decision: whatever else the session has
// encoded by then, its reach set is forced by propagation.
func TestExtendScopeNewDependencyTarget(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("warm", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "1.0")
	u.Add("other", "1.0")
	se := NewSession(u)
	app, warm := []Root{MustParseRoot("app")}, []Root{MustParseRoot("warm")}
	for _, roots := range [][]Root{app, warm} {
		if _, err := resolveWithin(t, se, roots); err != nil {
			t.Fatalf("pre-delta %s: %v", roots[0], err)
		}
	}

	d := repo.NewDelta()
	d.Add("app", "2.0", repo.Dep("other", ":"))
	extendWithin(t, se, d)

	res, err := resolveWithin(t, se, app)
	if err != nil {
		t.Fatalf("post-delta app: %v", err)
	}
	if got, want := pickStrings(res), map[string]string{"app": "2.0", "other": "1.0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("post-delta app picks %v, want %v", got, want)
	}
	res, err = resolveWithin(t, se, warm)
	if err != nil {
		t.Fatalf("post-delta warm: %v", err)
	}
	if res.Stats.Decisions != 0 {
		t.Errorf("warm made %d decisions; its reach set is forced by propagation", res.Stats.Decisions)
	}
	assertWarmMatchesCold(t, se, u, app, "post-delta app")
	assertWarmMatchesCold(t, se, u, warm, "post-delta warm")
}

// TestMatchingLitsConcreteTargetInPlace: lowering a requirement on a
// materialized concrete package walks its versions in place — one
// allocation, the returned slice, however many versions the target has —
// and yields the literals in exactly the order the candidate enumeration
// does, so every clause is emitted as before.
func TestMatchingLitsConcreteTargetInPlace(t *testing.T) {
	u := repo.New()
	for i := 1; i <= 200; i++ {
		u.Add("lib", fmt.Sprintf("%d.0", i))
	}
	u.Add("app", "1.0", repo.Dep("lib", "7.0"))
	se := NewSession(u)
	if _, err := se.Resolve(context.Background(), []Root{MustParseRoot("app")}, Options{}); err != nil {
		t.Fatalf("app: %v", err)
	}
	se.mu.Lock()
	defer se.mu.Unlock()

	for _, spec := range []string{":", "7.0", "50:120", "300:"} {
		rng := version.MustParseRange(spec)
		var want []sat.Lit
		for _, c := range se.scopedCandidates("lib") {
			if rng.Satisfies(c.Matched) {
				want = append(want, sat.Lit(se.vars[c.Pkg].vers[c.Index]))
			}
		}
		if got := se.matchingLits("lib", rng); !reflect.DeepEqual(got, want) {
			t.Errorf("lib@%s: matchingLits %v, candidate order %v", spec, got, want)
		}
	}

	rng := version.MustParseRange("7.0")
	if allocs := testing.AllocsPerRun(100, func() { se.matchingLits("lib", rng) }); allocs > 1 {
		t.Errorf("matchingLits on a 200-version package made %.0f allocations per call; want 1 (no candidate-list copy)", allocs)
	}
}

// TestSessionScopeFirstVisitGreedy: on a warm registry session, a first
// visit's greedy seed is a resolution verify accepts, and it is optimal on
// this family: every miss starts from it, takes one closing refutation and
// no other solve call, and answers as a fresh solve does. The seeds
// TestSeedTightCapFirstVisits draws that verify rejects pin the scope
// order, which makes the search's first model the greedy one.
func TestSessionScopeFirstVisitGreedy(t *testing.T) {
	u, _ := repo.SynthRegistry(firstVisitPkgs, firstVisitVers)
	sess := newFirstVisitSession(t, u)
	for _, roots := range firstVisitRoots(48) {
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatalf("%s: %v", rootsString(roots), err)
		}
		if res.Stats.SolveCalls != 1 {
			t.Errorf("%s: first visit took %d solve calls (%d models, %d conflicts), want 1",
				rootsString(roots), res.Stats.SolveCalls, res.Stats.Improvements, res.Stats.Conflicts)
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

// TestSessionScopeNewRootVersion: a delta publishes a new newest root
// version with a much smaller closure. Re-solving the root on the warm
// session takes no more solve calls than a fresh session on the grown
// universe, and picks the same: the warm solver's leftover activity and
// phases do not slow the descent.
func TestSessionScopeNewRootVersion(t *testing.T) {
	u, _ := repo.SynthDiamond(40, 8)
	se := NewSession(u)
	app := []Root{MustParseRoot("app")}
	if _, err := resolveWithin(t, se, app); err != nil {
		t.Fatalf("pre-delta app: %v", err)
	}
	d := repo.NewDelta()
	d.Add("app", "99.0", repo.Dep("mid0", ":"))
	extendWithin(t, se, d)
	warm, err := resolveWithin(t, se, app)
	if err != nil {
		t.Fatalf("post-delta app: %v", err)
	}
	fresh, err := resolveWithin(t, NewSession(u), app)
	if err != nil {
		t.Fatalf("fresh app: %v", err)
	}
	if warm.Stats.SolveCalls > fresh.Stats.SolveCalls {
		t.Errorf("warm re-solve took %d solve calls (%d decisions); a fresh session takes %d (%d decisions)",
			warm.Stats.SolveCalls, warm.Stats.Decisions, fresh.Stats.SolveCalls, fresh.Stats.Decisions)
	}
	if !reflect.DeepEqual(warm.Picks, fresh.Picks) {
		t.Errorf("warm picks %v, fresh picks %v", pickStrings(warm), pickStrings(fresh))
	}
}

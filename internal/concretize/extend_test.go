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

// assertWarmMatchesCold resolves roots through the warm session and a
// fresh cold session over the same (current) universe and requires the two
// answers to agree exactly: same error-ness, same picks, same cost, and
// both independently passing verify.
func assertWarmMatchesCold(t *testing.T, sess *Session, u *repo.Universe, roots []Root, label string) {
	t.Helper()
	cold := NewSession(u)
	coldRes, coldErr := cold.Resolve(context.Background(), roots, Options{})
	warmRes, warmErr := sess.Resolve(context.Background(), roots, Options{})
	if (coldErr == nil) != (warmErr == nil) {
		t.Fatalf("%s: cold err %v, warm err %v", label, coldErr, warmErr)
	}
	if coldErr != nil {
		if !errors.Is(coldErr, ErrUnsatisfiable) || !errors.Is(warmErr, ErrUnsatisfiable) {
			t.Fatalf("%s: errors disagree: cold %v, warm %v", label, coldErr, warmErr)
		}
		return
	}
	if !reflect.DeepEqual(pickStrings(coldRes), pickStrings(warmRes)) {
		t.Fatalf("%s: picks differ: cold %v, warm %v", label, pickStrings(coldRes), pickStrings(warmRes))
	}
	if coldRes.Stats.Cost != warmRes.Stats.Cost {
		t.Fatalf("%s: cost %d (cold) vs %d (warm)", label, coldRes.Stats.Cost, warmRes.Stats.Cost)
	}
	if err := verify(u, roots, warmRes.Picks); err != nil {
		t.Fatalf("%s: warm resolution fails verify: %v", label, err)
	}
}

// TestExtendMatchesCold grows a curated universe through a stream of
// deltas and, after every Extend, checks the warm in-place-extended
// session against a freshly encoded cold session on a mix of old and new
// request shapes, with repeats so post-delta cache state is exercised.
func TestExtendMatchesCold(t *testing.T) {
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("liba", ":"), repo.Dep("libb", ":"))
	u.Add("app", "1.0", repo.Dep("liba", ":"))
	u.Add("liba", "2.0", repo.Dep("base", "1.2"))
	u.Add("liba", "1.0", repo.Dep("base", ":"))
	u.Add("libb", "1.0", repo.Dep("base", "1.2.8:"))
	u.Add("base", "1.2.11")
	u.Add("base", "1.1")

	sess := NewSession(u)
	requests := [][]Root{
		{MustParseRoot("app")},
		{MustParseRoot("liba"), MustParseRoot("libb")},
		{MustParseRoot("app@3:")}, // unsat until a delta adds app 3.x
		{MustParseRoot("base")},
	}
	check := func(label string) {
		t.Helper()
		for i, roots := range requests {
			assertWarmMatchesCold(t, sess, u, roots, fmt.Sprintf("%s req %d", label, i))
		}
	}
	check("pre-delta")

	// Delta 1: a newer base and a newer liba that requires it.
	d1 := repo.NewDelta()
	d1.Add("base", "1.3")
	d1.Add("liba", "3.0", repo.Dep("base", "1.3:"))
	if _, err := sess.Extend(d1); err != nil {
		t.Fatalf("Extend d1: %v", err)
	}
	if got := sess.epoch; got != 1 {
		t.Fatalf("session epoch = %d, want 1", got)
	}
	check("delta1")

	// Delta 2: an app 3.0 flipping the unsat request shape to sat, plus a
	// brand-new package hanging off it.
	d2 := repo.NewDelta()
	d2.Add("app", "3.0", repo.Dep("liba", "3:"), repo.Dep("extra", ":"))
	d2.Add("extra", "1.0")
	if _, err := sess.Extend(d2); err != nil {
		t.Fatalf("Extend d2: %v", err)
	}
	requests = append(requests, []Root{MustParseRoot("extra")})
	check("delta2")

	res, err := sess.Resolve(context.Background(), []Root{MustParseRoot("app@3:")}, Options{})
	if err != nil {
		t.Fatalf("post-delta app@3:: %v", err)
	}
	if got := pickStrings(res)["app"]; got != "3.0" {
		t.Fatalf("app pick = %s, want 3.0", got)
	}
	if res.Stats.Epoch != 2 {
		t.Fatalf("Stats.Epoch = %d, want 2", res.Stats.Epoch)
	}
}

// TestExtendDeltaScopedInvalidation is the acceptance regression test for
// delta-scoped invalidation: with two disjoint dependency subgraphs, a
// delta touching only one of them must leave the other's stored answer
// live — repeat resolution stays a SolutionCacheHit, allocates zero new
// solver variables, and does zero solver work — while the touched
// subgraph's entry goes stale and is re-solved to the new optimum.
func TestExtendDeltaScopedInvalidation(t *testing.T) {
	u := repo.New()
	u.Add("appA", "1.0", repo.Dep("libA", ":"))
	u.Add("libA", "1.5")
	u.Add("libA", "1.0")
	u.Add("appB", "1.0", repo.Dep("libB", ":"))
	u.Add("libB", "1.5")
	u.Add("libB", "1.0")

	sess := NewSession(u)
	store := NewAnswers(AnswersPerSession)
	rootsA := []Root{MustParseRoot("appA")}
	rootsB := []Root{MustParseRoot("appB")}

	firstA, err := storeResolve(store, sess, rootsA, Options{})
	if err != nil {
		t.Fatalf("resolve A: %v", err)
	}
	if _, err := storeResolve(store, sess, rootsB, Options{}); err != nil {
		t.Fatalf("resolve B: %v", err)
	}

	d := repo.NewDelta()
	d.Add("libB", "2.0")
	storeExtend(t, store, sess, d)

	vars := sess.solver.NumVars()
	decisions := sess.solver.Decisions

	// Untouched subgraph: still served from cache, zero solver growth.
	againA, err := storeResolve(store, sess, rootsA, Options{})
	if err != nil {
		t.Fatalf("repeat A: %v", err)
	}
	if !againA.Stats.SolutionCacheHit {
		t.Error("delta to libB invalidated appA's cached answer")
	}
	if !reflect.DeepEqual(pickStrings(firstA), pickStrings(againA)) {
		t.Errorf("appA picks changed: %v -> %v", pickStrings(firstA), pickStrings(againA))
	}
	if got := sess.solver.NumVars(); got != vars {
		t.Errorf("cache hit on untouched shape grew solver variables: %d -> %d", vars, got)
	}
	if sess.solver.Decisions != decisions {
		t.Error("cache hit on untouched shape touched the solver")
	}

	// Touched subgraph: entry dropped, re-solve picks the delta's version.
	againB, err := storeResolve(store, sess, rootsB, Options{})
	if err != nil {
		t.Fatalf("repeat B: %v", err)
	}
	if againB.Stats.SolutionCacheHit {
		t.Error("delta to libB left appB's stale answer a hit")
	}
	if got := pickStrings(againB)["libB"]; got != "2.0" {
		t.Errorf("libB pick = %s, want 2.0", got)
	}
	assertWarmMatchesCold(t, sess, u, rootsB, "post-delta B")
}

// TestExtendVirtualProviderFlip: a delta-introduced provider must join the
// virtual's selection and win when the objective prefers it — both from an
// unsatisfiable virtual requirement flipping to sat, and from a satisfiable
// one flipping to a cheaper optimum.
func TestExtendVirtualProviderFlip(t *testing.T) {
	u := repo.New()
	// app needs mpi@2:, but the only provider provides 1.0: unsat.
	u.Add("app", "1.0", repo.Dep("mpi", "2:"))
	u.Add("mpich-old", "1.0", repo.Prov("mpi", "1.0"), repo.Dep("heavy", ":"))
	u.Add("heavy", "1.0")
	// tool needs any mpi and resolves through the heavy provider for now.
	u.Add("tool", "1.0", repo.Dep("mpi", ":"))

	sess := NewSession(u)
	store := NewAnswers(AnswersPerSession)
	appRoots := []Root{MustParseRoot("app")}
	toolRoots := []Root{MustParseRoot("tool")}

	if _, err := storeResolve(store, sess, appRoots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("pre-delta app err = %v, want ErrUnsatisfiable", err)
	}
	pre, err := storeResolve(store, sess, toolRoots, Options{})
	if err != nil {
		t.Fatalf("pre-delta tool: %v", err)
	}
	if _, ok := pre.Picks["heavy"]; !ok {
		t.Fatalf("pre-delta tool skipped the only provider's dep: %v", pickStrings(pre))
	}

	// The new provider satisfies mpi@2: and drags in no extra packages, so
	// it both revives app and becomes tool's optimum.
	d := repo.NewDelta()
	d.Add("mpich-new", "2.0", repo.Prov("mpi", "2.0"))
	storeExtend(t, store, sess, d)

	post, err := storeResolve(store, sess, appRoots, Options{})
	if err != nil {
		t.Fatalf("post-delta app: %v", err)
	}
	if _, ok := post.Picks["mpich-new"]; !ok {
		t.Errorf("app did not select the new provider: %v", pickStrings(post))
	}
	flip, err := storeResolve(store, sess, toolRoots, Options{})
	if err != nil {
		t.Fatalf("post-delta tool: %v", err)
	}
	if flip.Stats.SolutionCacheHit {
		t.Error("provider delta left tool's stale answer a hit")
	}
	if _, ok := flip.Picks["mpich-new"]; !ok {
		t.Errorf("optimum did not flip to the new provider: %v", pickStrings(flip))
	}
	assertWarmMatchesCold(t, sess, u, appRoots, "post-delta app")
	assertWarmMatchesCold(t, sess, u, toolRoots, "post-delta tool")
}

// TestExtendResurrection: versions pruned at level 0 because a dependency
// range had no candidates must come back to life when a delta supplies
// one — both a single version of a live package and a whole package all of
// whose versions were dead.
func TestExtendResurrection(t *testing.T) {
	u := repo.New()
	// app 2.0 is dead on arrival (base@9: empty); app 1.0 carries the
	// requests until the delta revives 2.0.
	u.Add("app", "2.0", repo.Dep("base", "9:"))
	u.Add("app", "1.0", repo.Dep("base", ":"))
	u.Add("base", "1.0")
	// doomed is dead in every version, making the whole package — and the
	// chain rooted at it — unsatisfiable until the delta.
	u.Add("doomed", "1.0", repo.Dep("base", "9:"))

	sess := NewSession(u)
	appRoots := []Root{MustParseRoot("app")}
	doomedRoots := []Root{MustParseRoot("doomed")}

	pre, err := sess.Resolve(context.Background(), appRoots, Options{})
	if err != nil {
		t.Fatalf("pre-delta app: %v", err)
	}
	if got := pickStrings(pre)["app"]; got != "1.0" {
		t.Fatalf("pre-delta app pick = %s, want 1.0", got)
	}
	if _, err := sess.Resolve(context.Background(), doomedRoots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("pre-delta doomed err = %v, want ErrUnsatisfiable", err)
	}

	d := repo.NewDelta()
	d.Add("base", "9.1")
	if _, err := sess.Extend(d); err != nil {
		t.Fatalf("Extend: %v", err)
	}

	post, err := sess.Resolve(context.Background(), appRoots, Options{})
	if err != nil {
		t.Fatalf("post-delta app: %v", err)
	}
	if got := pickStrings(post)["app"]; got != "2.0" {
		t.Errorf("resurrected app 2.0 not picked: %v", pickStrings(post))
	}
	if got := pickStrings(post)["base"]; got != "9.1" {
		t.Errorf("base pick = %s, want 9.1", got)
	}
	revived, err := sess.Resolve(context.Background(), doomedRoots, Options{})
	if err != nil {
		t.Fatalf("post-delta doomed: %v", err)
	}
	if got := pickStrings(revived)["doomed"]; got != "1.0" {
		t.Errorf("resurrected doomed not picked: %v", pickStrings(revived))
	}
	assertWarmMatchesCold(t, sess, u, appRoots, "post-delta app")
	assertWarmMatchesCold(t, sess, u, doomedRoots, "post-delta doomed")
}

// TestExtendDormantTrigger: a conditional dependency whose trigger names a
// package absent from the universe is dormant — and must arm itself when a
// delta introduces the trigger package.
func TestExtendDormantTrigger(t *testing.T) {
	u := repo.New()
	// tool needs plugin only when ext is selected; ext does not exist yet.
	u.Add("tool", "1.0", repo.DepWhen("plugin", ":", "ext", ":"))
	u.Add("plugin", "1.0")

	sess := NewSession(u)
	toolRoots := []Root{MustParseRoot("tool")}

	pre, err := sess.Resolve(context.Background(), toolRoots, Options{})
	if err != nil {
		t.Fatalf("pre-delta tool: %v", err)
	}
	if _, ok := pre.Picks["plugin"]; ok {
		t.Fatalf("dormant trigger installed plugin: %v", pickStrings(pre))
	}

	d := repo.NewDelta()
	d.Add("ext", "1.0")
	if _, err := sess.Extend(d); err != nil {
		t.Fatalf("Extend: %v", err)
	}

	both := []Root{MustParseRoot("tool"), MustParseRoot("ext")}
	post, err := sess.Resolve(context.Background(), both, Options{})
	if err != nil {
		t.Fatalf("post-delta tool+ext: %v", err)
	}
	if _, ok := post.Picks["plugin"]; !ok {
		t.Errorf("armed trigger did not require plugin: %v", pickStrings(post))
	}
	// tool alone still leaves the trigger unselected and plugin out.
	alone, err := sess.Resolve(context.Background(), toolRoots, Options{})
	if err != nil {
		t.Fatalf("post-delta tool: %v", err)
	}
	if _, ok := alone.Picks["plugin"]; ok {
		t.Errorf("unselected trigger installed plugin: %v", pickStrings(alone))
	}
	assertWarmMatchesCold(t, sess, u, both, "post-delta tool+ext")
}

// TestExtendEpochContract: Extend accepts the delta only when the session
// can reconcile its epoch with the universe's — apply-and-extend at parity,
// extend-only one epoch behind a sibling, error otherwise.
func TestExtendEpochContract(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "1.0")

	s1 := NewSession(u)
	s2 := NewSession(u)

	// Parity: s1 applies the delta itself.
	d1 := repo.NewDelta()
	d1.Add("lib", "2.0")
	e, err := s1.Extend(d1)
	if err != nil || e != 1 {
		t.Fatalf("s1.Extend = (%d, %v), want (1, nil)", e, err)
	}
	// One behind: s2 sees the sibling's apply and extends in place.
	e, err = s2.Extend(d1)
	if err != nil || e != 1 {
		t.Fatalf("s2.Extend = (%d, %v), want (1, nil)", e, err)
	}
	res, err := s2.Resolve(context.Background(), []Root{MustParseRoot("app")}, Options{})
	if err != nil {
		t.Fatalf("s2 resolve: %v", err)
	}
	if got := pickStrings(res)["lib"]; got != "2.0" {
		t.Fatalf("sibling-extended session missed the delta: lib = %s", got)
	}

	// Two or more behind: unrecoverable drift must be rejected.
	d2 := repo.NewDelta()
	d2.Add("lib", "3.0")
	d3 := repo.NewDelta()
	d3.Add("lib", "4.0")
	if _, err := u.Apply(d2); err != nil {
		t.Fatalf("Apply d2: %v", err)
	}
	if _, err := u.Apply(d3); err != nil {
		t.Fatalf("Apply d3: %v", err)
	}
	d4 := repo.NewDelta()
	d4.Add("lib", "5.0")
	if _, err := s1.Extend(d4); err == nil {
		t.Fatal("Extend two epochs behind did not error")
	}

	// A validation failure mutates neither the universe nor the session.
	fresh := repo.New()
	fresh.Add("app", "1.0")
	se := NewSession(fresh)
	bad := repo.NewDelta()
	bad.Add("app", "1.0") // re-adds an existing version
	if _, err := se.Extend(bad); err == nil {
		t.Fatal("invalid delta accepted")
	}
	if fresh.Epoch() != 0 || se.epoch != 0 {
		t.Fatalf("failed Extend moved epochs: universe %d, session %d", fresh.Epoch(), se.epoch)
	}
}

// TestExtendConcurrentWithResolve hammers one shared full Session with 8
// resolving goroutines while the main goroutine streams deltas through
// Extend. Run under -race this checks the session lock covers the whole
// extension; the answers are checked for internal consistency (every
// success verifies against the universe as of some epoch it was computed
// at — here all answers verify against the final universe because growth
// is append-only and the request shapes' optima only improve).
func TestExtendConcurrentWithResolve(t *testing.T) {
	u := repo.New()
	for c := 0; c < 4; c++ {
		u.Add(fmt.Sprintf("root%d", c), "1.0", repo.Dep(fmt.Sprintf("leaf%d", c), ":"))
		u.Add(fmt.Sprintf("leaf%d", c), "1.0")
	}
	sess := NewSession(u)

	const goroutines = 8
	const resolvesPer = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < resolvesPer; i++ {
				roots := []Root{{Pkg: fmt.Sprintf("root%d", (g+i)%4)}}
				res, err := sess.Resolve(context.Background(), roots, Options{})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d resolve %d: %w", g, i, err)
					return
				}
				if _, ok := res.Picks[roots[0].Pkg]; !ok {
					errs <- fmt.Errorf("goroutine %d resolve %d: root missing from picks", g, i)
					return
				}
			}
		}()
	}
	for step := 0; step < 10; step++ {
		d := repo.NewDelta()
		d.Add(fmt.Sprintf("leaf%d", step%4), fmt.Sprintf("1.%d", step+1))
		if _, err := sess.Extend(d); err != nil {
			t.Fatalf("Extend step %d: %v", step, err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced: every shape now answers the final universe's optimum.
	for c := 0; c < 4; c++ {
		roots := []Root{{Pkg: fmt.Sprintf("root%d", c)}}
		assertWarmMatchesCold(t, sess, u, roots, fmt.Sprintf("final root%d", c))
	}
}

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

// TestSessionMatchesColdCurated runs the curated end-to-end universes from
// concretize_test through one shared Session and checks the warm answers
// against fresh Concretize calls, including interleaved repeats.
func TestSessionMatchesColdCurated(t *testing.T) {
	u := repo.New()
	u.Add("app", "2.0", repo.Dep("liba", ":"), repo.Dep("libb", ":"))
	u.Add("app", "1.0", repo.Dep("liba", ":"))
	u.Add("liba", "3.0", repo.Dep("base", "1.2"))
	u.Add("liba", "2.0", repo.Dep("base", "1.2"))
	u.Add("liba", "1.0", repo.Dep("base", ":"))
	u.Add("libb", "2.0", repo.Dep("base", "1.2.8:"))
	u.Add("libb", "1.0", repo.Dep("base", ":"))
	u.Add("base", "1.2.11")
	u.Add("base", "1.2.8")
	u.Add("base", "1.1")

	sess := NewSession(u)
	requests := [][]Root{
		{MustParseRoot("app")},
		{MustParseRoot("liba"), MustParseRoot("libb")},
		{MustParseRoot("base@:1.2.8")},
		{MustParseRoot("app@1")},
		{MustParseRoot("app")}, // repeat: cache hit
		{MustParseRoot("app@9:")},
	}
	for i, roots := range requests {
		cold, coldErr := Concretize(u, roots, Options{})
		warm, warmErr := sess.Resolve(context.Background(), roots, Options{})
		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("request %d: cold err %v, warm err %v", i, coldErr, warmErr)
		}
		if coldErr != nil {
			if !errors.Is(warmErr, ErrUnsatisfiable) || !errors.Is(coldErr, ErrUnsatisfiable) {
				t.Fatalf("request %d: errors disagree: cold %v, warm %v", i, coldErr, warmErr)
			}
			continue
		}
		if !reflect.DeepEqual(pickStrings(cold), pickStrings(warm)) {
			t.Errorf("request %d: picks differ: cold %v, warm %v", i, pickStrings(cold), pickStrings(warm))
		}
		if cold.Stats.Cost != warm.Stats.Cost {
			t.Errorf("request %d: cost %d (cold) vs %d (warm)", i, cold.Stats.Cost, warm.Stats.Cost)
		}
	}
}

// TestSessionBudgetIsPerRequest: a conflict budget scopes to one request;
// an exhausted budget must not bleed into, or be bled into by, the
// session's lifetime conflict count.
func TestSessionBudgetIsPerRequest(t *testing.T) {
	u, root := repo.SynthUnsatWeb(10, 4)
	sess := NewSession(u)
	roots := []Root{{Pkg: root}}
	// Burn some lifetime conflicts first with an unbudgeted request.
	if _, err := sess.Resolve(context.Background(), roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	// A tiny budget must expire (the web needs many conflicts to refute
	// from scratch — though the session's learnt clauses may help, one
	// conflict is never enough) ...
	if _, err := sess.Resolve(context.Background(), roots, Options{MaxConflicts: 1}); err == nil {
		t.Fatal("expected an error under a one-conflict budget")
	}
	// ... and a later unbudgeted request must be unaffected by it.
	if _, err := sess.Resolve(context.Background(), roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("post-budget err = %v, want ErrUnsatisfiable", err)
	}
}

// TestSessionGuardRetirementBoundsSolverMemory is the regression test for
// the ROADMAP latent inefficiency: branch-and-bound guards from past
// requests must not accumulate in the solver. After every request the
// active PB constraints are exactly the encoding's (materialized by the
// first request), the occurrence lists are back to their encoding size,
// and constraint slots are recycled.
func TestSessionGuardRetirementBoundsSolverMemory(t *testing.T) {
	u, root := repo.SynthDense(20, 5, 3, 5)
	sess := NewSession(u) // every request hits the solver
	roots := []Root{{Pkg: root}}

	if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	skeletonPBs := sess.solver.ActivePBs()
	skeletonOcc := sess.solver.PBOccupancy()
	slotsAfterFirst := sess.solver.PBSlots()

	for i := 0; i < 20; i++ {
		if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got := sess.solver.ActivePBs(); got != skeletonPBs {
			t.Fatalf("request %d: ActivePBs = %d, want skeleton %d (guards leaked)", i, got, skeletonPBs)
		}
		if got := sess.solver.PBOccupancy(); got != skeletonOcc {
			t.Fatalf("request %d: PBOccupancy = %d, want skeleton %d (occurrences leaked)", i, got, skeletonOcc)
		}
	}
	if got := sess.solver.PBSlots(); got > slotsAfterFirst {
		t.Errorf("PBSlots grew from %d to %d across requests: retired slots not recycled",
			slotsAfterFirst, got)
	}
}

// TestSessionConcurrent hammers one Session from many goroutines with
// overlapping requests (run under -race in CI). Every response must
// independently pass verify and match the precomputed cold answer.
func TestSessionConcurrent(t *testing.T) {
	u, _ := repo.SynthDense(20, 5, 3, 99)
	type expect struct {
		roots []Root
		picks map[string]string
		cost  int64
		unsat bool
	}
	var pool []expect
	for _, spec := range [][]string{
		{"dense0"},
		{"dense1", "dense4"},
		{"dense2@:3"},
		{"dense0", "dense7"},
		{"dense5", "dense5@2:"},
		{"dense3@9:"}, // no such version: unsatisfiable
		{"dense9"},
		{"dense0@:4", "dense11"},
	} {
		var roots []Root
		for _, s := range spec {
			roots = append(roots, MustParseRoot(s))
		}
		e := expect{roots: roots}
		cold, err := Concretize(u, roots, Options{})
		if err != nil {
			if !errors.Is(err, ErrUnsatisfiable) {
				t.Fatalf("cold %v: %v", spec, err)
			}
			e.unsat = true
		} else {
			e.picks, e.cost = pickStrings(cold), cold.Stats.Cost
		}
		pool = append(pool, e)
	}

	sess := NewSession(u)
	store := NewAnswers(4) // small: force hit/miss/evict interleaving
	const goroutines, iters = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := pool[(g*7+i)%len(pool)]
				res, err := storeResolve(store, sess, e.roots, Options{})
				if e.unsat {
					if !errors.Is(err, ErrUnsatisfiable) {
						t.Errorf("goroutine %d: err = %v, want ErrUnsatisfiable", g, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("goroutine %d: Resolve: %v", g, err)
					continue
				}
				if verr := verify(u, e.roots, res.Picks); verr != nil {
					t.Errorf("goroutine %d: verify: %v", g, verr)
				}
				if !reflect.DeepEqual(pickStrings(res), e.picks) || res.Stats.Cost != e.cost {
					t.Errorf("goroutine %d: answer drifted: got %v cost %d, want %v cost %d",
						g, pickStrings(res), res.Stats.Cost, e.picks, e.cost)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionActivationEviction: the activation-literal memo is bounded —
// a stream of distinct root specs cannot grow the solver without limit,
// and previously evicted specs still resolve correctly (a fresh literal is
// allocated on demand).
func TestSessionActivationEviction(t *testing.T) {
	u, _ := repo.SynthDense(10, 5, 2, 13)
	sess := NewSession(u)
	sess.actsMax = 3
	cold := map[string]*Resolution{}
	var specs []string
	for pkg := 0; pkg < 5; pkg++ {
		for hi := 1; hi <= 3; hi++ {
			specs = append(specs, fmt.Sprintf("dense%d@:%d", pkg, hi))
		}
	}
	for _, spec := range specs {
		roots := []Root{MustParseRoot(spec)}
		res, err := Concretize(u, roots, Options{})
		if err != nil {
			t.Fatalf("cold %s: %v", spec, err)
		}
		cold[spec] = res
		if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
			t.Fatalf("warm %s: %v", spec, err)
		}
		if got := len(sess.acts); got > 3 {
			t.Fatalf("after %s: %d activation literals memoized, cap is 3", spec, got)
		}
	}
	// Every early spec has been evicted by now; replay the whole stream and
	// require answers identical to cold (SynthDense optima are unique).
	for _, spec := range specs {
		roots := []Root{MustParseRoot(spec)}
		res, err := sess.Resolve(context.Background(), roots, Options{})
		if err != nil {
			t.Fatalf("replay %s: %v", spec, err)
		}
		if !reflect.DeepEqual(pickStrings(res), pickStrings(cold[spec])) ||
			res.Stats.Cost != cold[spec].Stats.Cost {
			t.Fatalf("replay %s: answer drifted after eviction", spec)
		}
	}
	// A single request with more roots than the cap must still be answered
	// correctly: in-flight activations are pinned against eviction.
	roots := []Root{
		MustParseRoot("dense0@:4"), MustParseRoot("dense1@:4"),
		MustParseRoot("dense2@:4"), MustParseRoot("dense3@:4"),
		MustParseRoot("dense4@:4"),
	}
	coldWide, err := Concretize(u, roots, Options{})
	if err != nil {
		t.Fatalf("cold wide: %v", err)
	}
	warmWide, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("warm wide: %v", err)
	}
	if !reflect.DeepEqual(pickStrings(warmWide), pickStrings(coldWide)) {
		t.Fatal("wide request wrong under pinned eviction")
	}
}

// TestSessionEmptyRoots: no roots resolves to the empty optimal resolution
// without touching the solver, and a store does not file it.
func TestSessionEmptyRoots(t *testing.T) {
	u, _ := repo.SynthDense(4, 2, 1, 2)
	sess := NewSession(u)
	store := NewAnswers(4)
	res, err := storeResolve(store, sess, nil, Options{})
	if err != nil || len(res.Picks) != 0 || !res.Stats.Optimal {
		t.Errorf("got %+v, %v; want empty optimal resolution", res, err)
	}
	if store.Len() != 0 {
		t.Error("empty request was stored")
	}
}

// TestSessionUnknownRoot: unknown packages are request errors, distinct
// from unsatisfiability, and a store does not file them.
func TestSessionUnknownRoot(t *testing.T) {
	u, _ := repo.SynthDense(4, 2, 1, 2)
	sess := NewSession(u)
	store := NewAnswers(4)
	_, err := storeResolve(store, sess, []Root{{Pkg: "ghost"}}, Options{})
	if err == nil || errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want unknown-package error", err)
	}
	if store.Len() != 0 {
		t.Error("request error was stored")
	}
}

package concretize

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// storeResolve answers one request through a store in front of the
// session, the way resolve's member sets do: a fresh entry answers without
// touching the session; otherwise the session solves and a definitive
// answer is filed.
func storeResolve(store *Answers, se *Session, roots []Root, opts Options) (*Resolution, error) {
	key := ShapeKey(opts.Objective, roots)
	if res, err, _, ok := store.Get(key, roots); ok {
		return res, err
	}
	res, err := se.Resolve(context.Background(), roots, opts)
	store.Put(key, "session", res, err)
	return res, err
}

// storeExtend grows the session by one delta and invalidates the store
// under the same rule, the way resolve's member sets do.
func storeExtend(t testing.TB, store *Answers, se *Session, d *repo.Delta) {
	t.Helper()
	if _, err := se.Extend(d); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	store.Invalidate(d)
}

// TestAnswersHit: a repeated request is answered from the store —
// identical picks and cost, SolutionCacheHit set, the solving member
// named, and zero additional solver work.
func TestAnswersHit(t *testing.T) {
	u, root := repo.SynthDense(20, 5, 3, 11)
	sess := NewSession(u)
	store := NewAnswers(AnswersPerSession)
	roots := []Root{{Pkg: root}}

	first, err := storeResolve(store, sess, roots, Options{})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if first.Stats.SolutionCacheHit {
		t.Error("first request cannot be a hit")
	}
	decisions := sess.solver.Decisions

	second, err, by, ok := store.Get(ShapeKey(nil, roots), roots)
	if !ok || err != nil || by != "session" {
		t.Fatalf("repeat lookup: ok=%v err=%v by=%q", ok, err, by)
	}
	if !second.Stats.SolutionCacheHit {
		t.Error("repeat request must be a hit")
	}
	if sess.solver.Decisions != decisions {
		t.Error("a hit touched the solver")
	}
	if !reflect.DeepEqual(pickStrings(first), pickStrings(second)) || first.Stats.Cost != second.Stats.Cost {
		t.Error("stored answer differs from original")
	}
	// Root order and duplicates canonicalize to the same key.
	if store.Len() != 1 {
		t.Fatalf("Len = %d, want 1", store.Len())
	}
	dup, err := storeResolve(store, sess, []Root{{Pkg: root}, {Pkg: root}}, Options{})
	if err != nil || !dup.Stats.SolutionCacheHit {
		t.Errorf("duplicated roots missed the store (err %v)", err)
	}
	// Returned picks are caller-owned: mutating them must not poison later hits.
	for k := range dup.Picks {
		delete(dup.Picks, k)
	}
	again, err := storeResolve(store, sess, roots, Options{})
	if err != nil || !reflect.DeepEqual(pickStrings(first), pickStrings(again)) {
		t.Error("store entry was corrupted by caller mutation")
	}
}

// TestAnswersUnsat: proven unsatisfiability is definitive and is memoized
// too, so repeat failing requests skip the solver and still carry their
// roots.
func TestAnswersUnsat(t *testing.T) {
	u, root := repo.SynthUnsatWeb(4, 3)
	sess := NewSession(u)
	store := NewAnswers(AnswersPerSession)
	roots := []Root{{Pkg: root}}
	if _, err := storeResolve(store, sess, roots, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("err = %v, want ErrUnsatisfiable", err)
	}
	decisions := sess.solver.Decisions
	_, err := storeResolve(store, sess, roots, Options{})
	var ue *UnsatError
	if !errors.As(err, &ue) || len(ue.Roots) != 1 || ue.Roots[0].Pkg != root {
		t.Fatalf("repeat err = %v, want an *UnsatError for %s", err, root)
	}
	if sess.solver.Decisions != decisions {
		t.Error("repeat unsat request touched the solver")
	}
}

// TestSessionNeverMemoizes: a session answers every request with a solve;
// memoizing answers is the store's job alone.
func TestSessionNeverMemoizes(t *testing.T) {
	u, root := repo.SynthDense(12, 4, 2, 3)
	sess := NewSession(u)
	roots := []Root{{Pkg: root}}
	if _, err := sess.Resolve(context.Background(), roots, Options{}); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	res, err := sess.Resolve(context.Background(), roots, Options{})
	if err != nil {
		t.Fatalf("repeat Resolve: %v", err)
	}
	if res.Stats.SolutionCacheHit || res.Stats.SolveCalls == 0 || !res.Stats.BoundMemoHit {
		t.Errorf("repeat: hit=%v solve calls=%d memo=%v, want a bound-memo solve",
			res.Stats.SolutionCacheHit, res.Stats.SolveCalls, res.Stats.BoundMemoHit)
	}
}

// TestAnswersLRUEviction: the store holds at most its capacity, evicting
// least-recently-used.
func TestAnswersLRUEviction(t *testing.T) {
	u, _ := repo.SynthDense(8, 3, 1, 21)
	sess := NewSession(u)
	store := NewAnswers(2)
	for _, pkg := range []string{"dense0", "dense1", "dense2", "dense3"} {
		if _, err := storeResolve(store, sess, []Root{{Pkg: pkg}}, Options{}); err != nil {
			t.Fatalf("Resolve %s: %v", pkg, err)
		}
	}
	if got := store.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	// dense0 was evicted long ago; resolving it again is a miss.
	decisions := sess.solver.Decisions
	res, err := storeResolve(store, sess, []Root{{Pkg: "dense0"}}, Options{})
	if err != nil {
		t.Fatalf("Resolve dense0: %v", err)
	}
	if res.Stats.SolutionCacheHit || sess.solver.Decisions == decisions {
		t.Error("evicted entry still served from the store")
	}
}

// TestAnswersStaleEntries pins the store's invalidation contract: a delta
// marks the entries it touches stale instead of deleting them. A stale
// entry is never a hit and no longer counts in Len, but its optimal answer
// stays readable through LastGood at the epoch it was solved at, marked
// not fresh, until a re-solve replaces it. An unsat entry is never a
// last-good answer, fresh or stale. Untouched entries stay fresh hits,
// and LastGood reports them fresh.
func TestAnswersStaleEntries(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("lib", ":"))
	u.Add("lib", "1.0")
	u.Add("other", "1.0")
	u.Add("bad", "1.0", repo.Dep("lib", "9:"))
	sess := NewSession(u)
	store := NewAnswers(8)
	app, other, bad := []Root{{Pkg: "app"}}, []Root{{Pkg: "other"}}, []Root{{Pkg: "bad"}}
	for _, roots := range [][]Root{app, other} {
		if _, err := storeResolve(store, sess, roots, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := storeResolve(store, sess, bad, Options{}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("bad: %v, want unsat", err)
	}
	if _, _, _, ok := store.LastGood(ShapeKey(nil, bad)); ok {
		t.Fatal("LastGood served a fresh unsat entry")
	}

	d := repo.NewDelta()
	d.Add("lib", "2.0")
	storeExtend(t, store, sess, d)

	if store.Len() != 1 {
		t.Fatalf("Len = %d after the delta, want 1 fresh entry (other)", store.Len())
	}
	if _, _, _, ok := store.Get(ShapeKey(nil, app), app); ok {
		t.Fatal("stale entry served as a hit")
	}
	if _, _, _, ok := store.Get(ShapeKey(nil, bad), bad); ok {
		t.Fatal("stale unsat entry served as a hit")
	}
	if _, _, _, ok := store.Get(ShapeKey(nil, other), other); !ok {
		t.Fatal("untouched entry lost its hit")
	}
	lg, by, fresh, ok := store.LastGood(ShapeKey(nil, app))
	if !ok || fresh || by != "session" || lg.Stats.Epoch != 0 || lg.Picks["lib"].String() != "1.0" {
		t.Fatalf("LastGood(app) = %v %q fresh %v %v, want a stale lib 1.0 at epoch 0", lg, by, fresh, ok)
	}
	if _, _, fresh, ok := store.LastGood(ShapeKey(nil, other)); !ok || !fresh {
		t.Fatalf("LastGood(other) fresh %v %v, want the untouched entry fresh", fresh, ok)
	}
	if _, _, _, ok := store.LastGood(ShapeKey(nil, bad)); ok {
		t.Fatal("LastGood served a stale unsat entry")
	}

	// The re-solve replaces the stale entry: fresh again, at the new epoch.
	res, err := storeResolve(store, sess, app, Options{})
	if err != nil || res.Stats.SolutionCacheHit || res.Picks["lib"].String() != "2.0" {
		t.Fatalf("re-solve after the delta = %v, %v", res, err)
	}
	lg, _, fresh, _ = store.LastGood(ShapeKey(nil, app))
	if !fresh || lg.Stats.Epoch != 1 || lg.Picks["lib"].String() != "2.0" || store.Len() != 2 {
		t.Fatalf("after the re-solve: LastGood fresh %v epoch %d lib %s, Len %d; want fresh, epoch 1, lib 2.0, Len 2",
			fresh, lg.Stats.Epoch, lg.Picks["lib"], store.Len())
	}
}

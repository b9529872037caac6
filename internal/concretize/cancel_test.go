package concretize

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// The cancellation tests use the pigeonhole family: refuting
// SynthPigeonhole(11) takes minutes of solver time, so a request over it
// is reliably in-flight when the context fires, while single-pigeon
// requests over the same universe resolve instantly — which is exactly
// what the reusability checks need.

func TestResolveCanceledBeforeStart(t *testing.T) {
	u, root := repo.SynthDiamond(3, 3)
	sess := NewSession(u)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.Resolve(ctx, []Root{{Pkg: root}}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The canceled request is no answer: a store must not file it.
	store := NewAnswers(4)
	store.Put(ShapeKey(nil, []Root{{Pkg: root}}), "session", res, err)
	if store.Len() != 0 {
		t.Fatalf("store holds %d entries after a canceled request, want 0", store.Len())
	}
	// And the session must still serve.
	res, err = sess.Resolve(context.Background(), []Root{{Pkg: root}}, Options{})
	if err != nil || !res.Stats.Optimal {
		t.Fatalf("post-cancel resolve: res %+v, err %v", res, err)
	}
}

func TestResolveCancelMidSolve(t *testing.T) {
	u, root := repo.SynthPigeonhole(11)
	sess := NewSession(u)
	ctx, cancel := context.WithCancel(context.Background())

	type outcome struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan outcome, 1)
	go func() {
		start := time.Now()
		_, err := sess.Resolve(ctx, []Root{{Pkg: root}}, Options{})
		done <- outcome{err: err, elapsed: time.Since(start)}
	}()

	// Let the solver descend into the refutation, then cancel and measure
	// how long it takes to notice. The interrupt flag is polled every
	// search-loop iteration, so the return is near-immediate; the bound
	// below is generous slack for CI scheduling, not the expected latency.
	time.Sleep(30 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Resolve did not return after cancel")
	}
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (solve finished in %v?)", o.err, o.elapsed)
	}
	if lag := time.Since(canceledAt); lag > 100*time.Millisecond {
		t.Errorf("Resolve took %v to honor cancellation", lag)
	}

	// Solver state must remain reusable AND promptly so: a satisfiable
	// request over the same universe (one pigeon alone, no hole
	// contention) succeeds on the same session. Without the phase reset
	// on cancellation, the saved phases of the interrupted refutation pin
	// this solve inside the all-pigeons-installed subspace and it burns
	// >100k conflicts escaping; with the reset it is conflict-free.
	reuseStart := time.Now()
	res, err := sess.Resolve(context.Background(), []Root{{Pkg: "pigeon0"}}, Options{})
	if err != nil {
		t.Fatalf("post-cancel resolve: %v", err)
	}
	if !res.Stats.Optimal || len(res.Picks) != 1 {
		t.Fatalf("post-cancel resolution: %+v", res)
	}
	if d := time.Since(reuseStart); d > time.Second {
		t.Errorf("post-cancel resolve took %v (%d conflicts), want prompt", d, res.Stats.Conflicts)
	}
	if res.Stats.Conflicts > 10000 {
		t.Errorf("post-cancel resolve burned %d conflicts; phase reset regressed", res.Stats.Conflicts)
	}
}

func TestResolveDeadline(t *testing.T) {
	u, root := repo.SynthPigeonhole(11)
	sess := NewSession(u)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sess.Resolve(ctx, []Root{{Pkg: root}}, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("deadline-bounded resolve took %v", d)
	}
}

func TestPigeonholeSmallIsUnsat(t *testing.T) {
	// Sanity-check the encoding on an instance small enough to refute:
	// the typed error carries the request's roots.
	u, root := repo.SynthPigeonhole(4)
	_, err := Concretize(u, []Root{{Pkg: root}}, Options{})
	var unsat *UnsatError
	if !errors.As(err, &unsat) {
		t.Fatalf("err = %v, want *UnsatError", err)
	}
	if len(unsat.Roots) != 1 || unsat.Roots[0].Pkg != root {
		t.Fatalf("UnsatError.Roots = %v", unsat.Roots)
	}
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatal("UnsatError must match ErrUnsatisfiable")
	}
}

func TestCancelDoesNotPoisonBudgets(t *testing.T) {
	// A canceled request must not leak its interrupt into a later
	// budget-limited request: the latter reports ErrBudget, not a
	// cancellation.
	u, root := repo.SynthPigeonhole(11)
	sess := NewSession(u)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if _, err := sess.Resolve(ctx, []Root{{Pkg: root}}, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	_, err := sess.Resolve(context.Background(), []Root{{Pkg: root}}, Options{MaxConflicts: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("budgeted err = %v, want ErrBudget", err)
	}
}

func TestBudgetExpiryDoesNotPoisonPhases(t *testing.T) {
	// Budget expiry abandons a search mid-flight exactly like a
	// cancellation: without the phase reset, the next request would have
	// to refute the abandoned all-pigeons-installed subspace before it
	// could look anywhere else.
	u, root := repo.SynthPigeonhole(11)
	sess := NewSession(u)
	if _, err := sess.Resolve(context.Background(), []Root{{Pkg: root}}, Options{MaxConflicts: 5000}); !errors.Is(err, ErrBudget) {
		t.Fatalf("budgeted err = %v, want ErrBudget", err)
	}
	res, err := sess.Resolve(context.Background(), []Root{{Pkg: "pigeon0"}}, Options{})
	if err != nil {
		t.Fatalf("post-budget resolve: %v", err)
	}
	if res.Stats.Conflicts > 10000 {
		t.Errorf("post-budget resolve burned %d conflicts; phase reset regressed", res.Stats.Conflicts)
	}
}

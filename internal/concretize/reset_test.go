package concretize

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/repo"
)

// This file pins revival by reset: a delta that makes a version buildable
// again after the solver fixed it false at the top level must return
// promptly, reset the encoding at most once, and leave the session
// answering exactly what a fresh session answers.

// withinDeadline runs f in a goroutine and fails the test when it has not
// returned after five seconds, so a revival that loops fails the test
// instead of hanging the suite.
func withinDeadline(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5s", what)
	}
}

// extendWithin extends the session under withinDeadline.
func extendWithin(t *testing.T, se *Session, d *repo.Delta) {
	t.Helper()
	var err error
	withinDeadline(t, "Extend", func() { _, err = se.Extend(d) })
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
}

// resolveWithin resolves on the session under withinDeadline.
func resolveWithin(t *testing.T, se *Session, roots []Root) (*Resolution, error) {
	t.Helper()
	var res *Resolution
	var err error
	withinDeadline(t, "Resolve", func() { res, err = se.Resolve(context.Background(), roots, Options{}) })
	return res, err
}

// TestResetSelfDeadDependency: a request materializes a version that
// depends on a range of its own package nothing satisfies (a@1.0 -> a@3:),
// then a delta adds another version of the package. The dead version stays
// dead; the new one must become pickable. When the dead version was the
// package's only one, the package itself died and the delta resets the
// encoding; beside a live version, the delta extends in place.
func TestResetSelfDeadDependency(t *testing.T) {
	for _, tc := range []struct {
		name   string
		live   bool // a live version beside the dead one
		resets int
	}{
		{"only-version", false, 1},
		{"beside-live-version", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := repo.New()
			u.Add("a", "1.0", repo.Dep("a", "3:"))
			if tc.live {
				u.Add("a", "0.5")
			}
			se := NewSession(u)
			roots := []Root{MustParseRoot("a")}
			if _, err := resolveWithin(t, se, roots); tc.live != (err == nil) {
				t.Fatalf("pre-delta: %v", err)
			}

			d := repo.NewDelta()
			d.Add("a", "2.0")
			extendWithin(t, se, d)
			res, err := resolveWithin(t, se, roots)
			if err != nil {
				t.Fatalf("post-delta: %v", err)
			}
			if got := pickStrings(res)["a"]; got != "2.0" {
				t.Fatalf("post-delta a = %s, want 2.0", got)
			}
			assertWarmMatchesCold(t, se, u, roots, "post-delta a")
			if got := se.EncodingStats().Resets; got != tc.resets {
				t.Fatalf("resets = %d, want %d", got, tc.resets)
			}
		})
	}
}

// TestResetMutualDeadDependencies: two packages each depend on a range of
// the other that nothing satisfies (a@1.0 -> b@5:, b@1.0 -> a@5:), so one
// request kills both; a delta adding b@2.0 revives b (and only b).
func TestResetMutualDeadDependencies(t *testing.T) {
	u := repo.New()
	u.Add("a", "1.0", repo.Dep("b", "5:"))
	u.Add("b", "1.0", repo.Dep("a", "5:"))
	se := NewSession(u)
	aRoots, bRoots := []Root{MustParseRoot("a")}, []Root{MustParseRoot("b")}
	if _, err := resolveWithin(t, se, aRoots); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("pre-delta a: %v, want unsatisfiable", err)
	}

	d := repo.NewDelta()
	d.Add("b", "2.0")
	extendWithin(t, se, d)
	if _, err := resolveWithin(t, se, aRoots); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("post-delta a: %v, want unsatisfiable (b@5: still missing)", err)
	}
	res, err := resolveWithin(t, se, bRoots)
	if err != nil {
		t.Fatalf("post-delta b: %v", err)
	}
	if got := pickStrings(res)["b"]; got != "2.0" {
		t.Fatalf("post-delta b = %s, want 2.0", got)
	}
	assertWarmMatchesCold(t, se, u, aRoots, "post-delta a")
	assertWarmMatchesCold(t, se, u, bRoots, "post-delta b")
	if got := se.EncodingStats().Resets; got != 1 {
		t.Fatalf("resets = %d, want 1", got)
	}
}

// TestResetDeltaThenRevive runs the daemon-level sequence on one session:
// a delta introduces a package whose only version needs a range of itself
// nothing satisfies, a request reaches it (unsatisfiable), and a second
// delta adds a version that is buildable.
func TestResetDeltaThenRevive(t *testing.T) {
	u := repo.New()
	u.Add("base", "1.0")
	se := NewSession(u)
	roots := []Root{MustParseRoot("selfdep")}

	d1 := repo.NewDelta()
	d1.Add("selfdep", "1.0", repo.Dep("selfdep", "3:"))
	extendWithin(t, se, d1)
	if _, err := resolveWithin(t, se, roots); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("after the first delta: %v, want unsatisfiable", err)
	}
	d2 := repo.NewDelta()
	d2.Add("selfdep", "2.0")
	extendWithin(t, se, d2)
	res, err := resolveWithin(t, se, roots)
	if err != nil {
		t.Fatalf("after the second delta: %v", err)
	}
	if got := pickStrings(res)["selfdep"]; got != "2.0" {
		t.Fatalf("selfdep = %s, want 2.0", got)
	}
	assertWarmMatchesCold(t, se, u, roots, "after the second delta")
}

// TestResetOnMaterialization: a package whose only version depends on a
// name the universe lacks is dead once a request reaches it; a delta
// adding that name touches nothing materialized, so the revival — and the
// reset — happen when the next request materializes the new package. The
// root's activation literal must not survive it.
func TestResetOnMaterialization(t *testing.T) {
	u := repo.New()
	u.Add("app", "1.0", repo.Dep("missing", ":"))
	se := NewSession(u)
	roots := []Root{MustParseRoot("app")}
	if _, err := resolveWithin(t, se, roots); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("pre-delta: %v, want unsatisfiable", err)
	}
	d := repo.NewDelta()
	d.Add("missing", "1.0")
	extendWithin(t, se, d)
	if got := se.EncodingStats().Resets; got != 0 {
		t.Fatalf("resets after a delta on unmaterialized names = %d, want 0", got)
	}
	res, err := resolveWithin(t, se, roots)
	if err != nil {
		t.Fatalf("post-delta: %v", err)
	}
	if got := pickStrings(res)["missing"]; got != "1.0" {
		t.Fatalf("missing = %s, want 1.0", got)
	}
	if got := se.EncodingStats().Resets; got != 1 {
		t.Fatalf("resets = %d, want 1", got)
	}
	assertWarmMatchesCold(t, se, u, roots, "post-delta app")
}

// TestResetConcurrentWithResolve races resolving goroutines (some with
// deadlines, so solves get interrupted) against a stream of deltas that
// each revive a dead package and so reset the encoding. Every answer must
// be a success or an unsat verdict, each delta must reset exactly once,
// and the quiesced session must answer what a fresh one does.
func TestResetConcurrentWithResolve(t *testing.T) {
	const n = 8
	u := repo.New()
	for i := 0; i < n; i++ {
		u.Add(fmt.Sprintf("d%d", i), "1.0", repo.Dep(fmt.Sprintf("d%d", i), "9:"))
		u.Add(fmt.Sprintf("app%d", i), "1.0", repo.Dep(fmt.Sprintf("d%d", i), ":"))
	}
	se := NewSession(u)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(2000))*time.Microsecond)
				roots := []Root{MustParseRoot(fmt.Sprintf("app%d", rng.Intn(n)))}
				_, err := se.Resolve(ctx, roots, Options{})
				cancel()
				if err != nil && !errors.Is(err, ErrUnsatisfiable) && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("d%d", i)
		if _, err := se.Resolve(context.Background(), []Root{MustParseRoot(d)}, Options{}); !errors.Is(err, ErrUnsatisfiable) {
			t.Errorf("%s before its delta: %v, want unsatisfiable", d, err)
		}
		delta := repo.NewDelta()
		delta.Add(d, "2.0")
		if _, err := se.Extend(delta); err != nil {
			t.Errorf("Extend %s: %v", d, err)
		}
	}
	close(stop)
	wg.Wait()

	if got := se.EncodingStats().Resets; got != n {
		t.Errorf("resets = %d, want %d (one per reviving delta)", got, n)
	}
	for i := 0; i < n; i++ {
		assertWarmMatchesCold(t, se, u, []Root{MustParseRoot(fmt.Sprintf("app%d", i))}, fmt.Sprintf("final app%d", i))
	}
}

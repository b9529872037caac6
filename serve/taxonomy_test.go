package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/internal/repo"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// TestFailureTaxonomy pins the resilience layer's failure classes
// directly: definitive answers and caller outcomes are neither retried
// nor degraded; contained panics, a fully-benched backend and injected
// faults are retried and may degrade; shed requests degrade without a
// retry. Each error is wrapped the way the layer that raises it wraps it,
// and the unsat and unknown-package cases also come from a real pool.
func TestFailureTaxonomy(t *testing.T) {
	unsatU, unsatRoot := repo.SynthUnsatWeb(4, 2)
	pool := resolve.NewPoolResolver(unsatU, 1, resolve.SessionOptions{})
	poolErr := func(spec string) error {
		root, err := resolve.ParseRoot(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = pool.Resolve(context.Background(), resolve.Request{Roots: []resolve.Root{root}})
		if err == nil {
			t.Fatalf("%s: pool answered, want an error", spec)
		}
		return err
	}
	pooledUnsat := poolErr(unsatRoot)
	var me *resolve.MemberError
	if !errors.As(pooledUnsat, &me) {
		t.Fatalf("pool unsat %v is not a *resolve.MemberError", pooledUnsat)
	}

	cases := []struct {
		name                  string
		err                   error
		transient, degradable bool
	}{
		{"unsat in MemberError", &resolve.MemberError{Member: "pool/0", Err: &resolve.UnsatError{}}, false, false},
		{"pool unsat", pooledUnsat, false, false},
		{"budget", fmt.Errorf("%w after %d conflicts", resolve.ErrBudget, 10), false, false},
		{"unknown package", &resolve.UnknownPackageError{Pkg: "nope"}, false, false},
		{"pool unknown package", poolErr("nope"), false, false},
		{"deadline", fmt.Errorf("concretize: request canceled: %w", context.DeadlineExceeded), false, false},
		{"cancel", fmt.Errorf("concretize: request canceled: %w", context.Canceled), false, false},
		{"panic", &resolve.PanicError{Op: "pool/0", Value: "boom"}, true, true},
		{"no active members", resolve.ErrNoActiveMembers, true, true},
		{"injected", fmt.Errorf("%w: serve/backend/resolve", faultpoint.ErrInjected), true, true},
		{"shed queue", errShedQueue, false, true},
		{"shed wait", fmt.Errorf("%w (estimated %v)", errShedWait, 0), false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := transient(c.err); got != c.transient {
				t.Errorf("transient(%v) = %v, want %v", c.err, got, c.transient)
			}
			if got := degradable(c.err); got != c.degradable {
				t.Errorf("degradable(%v) = %v, want %v", c.err, got, c.degradable)
			}
		})
	}
}

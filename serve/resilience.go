package serve

// The daemon's resilience layer: panic containment at the backend
// boundary, bounded retry with jittered backoff for transient failures,
// and the stale-answer degraded mode (Server.staleAnswer over
// Backend.LastGood). The failure taxonomy the layer keys on:
//
//   - Definitive answers (unsat, unknown package, budget exhaustion) are
//     never retried and never degraded: the backend answered; the answer
//     is "no".
//   - Caller outcomes (deadline, cancellation) are never retried — the
//     caller is gone — and never degraded past the shed path.
//   - Transient failures (a contained panic, a fully-benched backend, an
//     injected fault) are retried within the request's deadline budget,
//     then degraded if a fresh-enough last good answer exists, then
//     surfaced.

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"github.com/paper-repo-growth/go-arxiv/internal/faultpoint"
	"github.com/paper-repo-growth/go-arxiv/resolve"
)

// Fault-injection sites at the serving boundary: the backend call a leader
// solve issues, and the Apply broadcast. See internal/faultpoint.
var (
	fpBackendResolve = faultpoint.New("serve/backend/resolve")
	fpBackendApply   = faultpoint.New("serve/backend/apply")
)

// transient reports whether a resolve failure is worth retrying: the
// backend failed for an internal, plausibly self-healing reason rather
// than answering. Contained panics and a fully-benched backend are
// transient (the retry's Resolve entry rebuilds benched members); so is
// a raw injected fault (which simulates exactly this class). Definitive
// answers — including an unsat proof the pool wraps in a *MemberError
// naming its shard — and caller outcomes are not.
func transient(err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return false
	case errors.Is(err, resolve.ErrUnsatisfiable), errors.Is(err, resolve.ErrBudget):
		return false
	}
	var unknown *resolve.UnknownPackageError
	if errors.As(err, &unknown) {
		return false
	}
	var pe *resolve.PanicError
	if errors.As(err, &pe) {
		return true
	}
	return errors.Is(err, resolve.ErrNoActiveMembers) || errors.Is(err, faultpoint.ErrInjected)
}

// degradable reports whether a failure may be answered with a last good
// answer: shed requests (the backend is healthy but has no
// capacity for this caller) and transient failures (the backend is
// unhealthy). Definitive answers must never degrade — a stale "yes" would
// contradict a fresh "no".
func degradable(err error) bool {
	return errors.Is(err, errShedQueue) || errors.Is(err, errShedWait) || transient(err)
}

// retryDelay is the jittered exponential backoff for one retry attempt:
// base*2^attempt, +-50%. Jitter keeps a failure wave of coalesced leaders
// from re-converging on the backend in lockstep.
func retryDelay(base time.Duration, attempt int) time.Duration {
	d := base << attempt
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(2*half))
}

//go:build !satcheck

package sat

// satCheckEnabled reports whether this binary carries the checked solver
// build (the satcheck build tag).
const satCheckEnabled = false

// checkInvariants is the checked-build audit hook; without the satcheck
// build tag it is an empty function and the call sites compile away.
func (s *Solver) checkInvariants(string) {}

// checkCallHeap is the checked-build audit of a call's branch heap when
// its search ends; without the satcheck build tag it is an empty function.
func (s *Solver) checkCallHeap() {}

// checkScopedModel is the checked-build scope-contract audit; without the
// satcheck build tag it is an empty function.
func (s *Solver) checkScopedModel() {}

// CheckInvariants audits the solver's internal state under the satcheck
// build tag (see invariants.go). Without the tag the audit is not compiled
// in and the result is always nil.
func (s *Solver) CheckInvariants() error { return nil }

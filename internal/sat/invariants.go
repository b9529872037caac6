//go:build satcheck

package sat

import (
	"fmt"
	"slices"
)

// This file is the checked solver build: a deep structural audit of the
// solver's propagation state, compiled in only under the satcheck build
// tag. The mutating entry points (SolveAssuming, TightenPB, DetachClause,
// RemovePB, RetireGuard, ForgetLearnts) call checkInvariants at their
// boundaries (SolveAssuming right after markScope builds the call's branch
// heap, and at exit, where checkCallHeap audits the heap before the
// closing backtrack), and every scoped Sat verdict is checked against the
// scope contract (checkScopedModel);
// without the tag those calls are empty functions (invariants_off.go) and
// cost nothing. CI runs the full test suite — including the differential
// and churn harnesses — with -tags satcheck, so every constraint edit those
// tests perform is followed by a full audit.
//
// The invariants are keyed to this solver's actual representation choices,
// not to a generic CDCL textbook:
//
//   - clauses with two or more literals are watched at exactly
//     lits[0]/lits[1] (keyed by the literal's negation), but unit learnt
//     clauses are stored unwatched, and deleted clauses may linger on watch
//     lists until lazy compaction — so the watch audit is one-directional:
//     every live clause must be on its two watch lists; watch lists may
//     hold extra (deleted) entries;
//   - a unit learnt clause recorded under assumptions can legitimately be
//     unsatisfied at level 0 (its assignment was rolled back with the
//     assumption levels), so closure-under-propagation is only asserted
//     for watched clauses and PB constraints;
//   - level-0 reasons may name deleted clauses (conflict analysis never
//     dereferences level-0 reasons), but never a retired PB slot — removePB
//     scrubs those eagerly, and slot recycling depends on it.

// satCheckEnabled reports whether this binary carries the checked solver
// build (the satcheck build tag).
const satCheckEnabled = true

// checkInvariants panics if the solver's internal state is inconsistent.
// It is called by the mutating entry points at their boundaries and
// compiles to a no-op without the satcheck build tag.
func (s *Solver) checkInvariants(site string) {
	if err := s.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("sat: invariant violation after %s: %v", site, err))
	}
}

// CheckInvariants audits the solver's internal state: watcher coverage for
// every live clause, PB counter/occurrence/slot consistency against the
// trail, branch-heap discipline (auxiliary variables never branchable;
// during a call, every unassigned in-scope decision variable available and
// nothing out of scope), and closure of the level-0 trail under unit and
// PB propagation. It returns nil on a solver
// that is inconsistent at the top level (ok == false): such a solver is
// frozen and its partial state makes no promises. It must be called at
// decision level 0, i.e. between solves — anywhere the solver's public
// mutating API is legal.
//
// Without the satcheck build tag this walk is not compiled in and the
// result is always nil.
func (s *Solver) CheckInvariants() error {
	if !s.ok {
		return nil
	}
	if lvl := s.decisionLevel(); lvl != 0 {
		return fmt.Errorf("decision level is %d at a checkpoint; want 0", lvl)
	}
	if s.qhead != len(s.trail) {
		return fmt.Errorf("propagation queue not drained: qhead=%d, trail length %d", s.qhead, len(s.trail))
	}
	if err := s.checkGeometry(); err != nil {
		return err
	}
	if err := s.checkTrail(); err != nil {
		return err
	}
	if err := s.checkHeap(); err != nil {
		return err
	}
	if err := s.checkClauseList(s.clauses, "original"); err != nil {
		return err
	}
	if err := s.checkClauseList(s.learnts, "learnt"); err != nil {
		return err
	}
	deleted := 0
	for _, c := range s.clauses {
		if c.deleted {
			deleted++
		}
	}
	if deleted != s.detached {
		return fmt.Errorf("detached counter is %d but the clause list holds %d deleted clauses", s.detached, deleted)
	}
	return s.checkPBState()
}

// checkCallHeap panics unless the branch heap still matches the open
// call's scope when its search ends, at whatever decision level (see
// checkHeap). It compiles to a no-op without the satcheck build tag.
func (s *Solver) checkCallHeap() {
	if err := s.checkHeap(); s.ok && err != nil {
		panic(fmt.Sprintf("sat: invariant violation after solve exit: %v", err))
	}
}

// checkScopedModel panics unless the model of a scoped SolveAssuming call
// satisfies the scope contract: with every variable the search left
// unassigned read as false, each live original clause, each learnt clause
// and each live PB constraint holds. It compiles to a no-op without the
// satcheck build tag.
func (s *Solver) checkScopedModel() {
	if err := s.scopedModelError(); err != nil {
		panic(fmt.Sprintf("sat: scoped model violates the scope contract: %v", err))
	}
}

// scopedModelError is the walk behind checkScopedModel.
func (s *Solver) scopedModelError() error {
	holds := func(l Lit) bool { return (s.model[l.Var()] == lTrue) != l.Sign() }
	for _, cs := range [2][]*clause{s.clauses, s.learnts} {
		for _, c := range cs {
			if c.deleted || slices.ContainsFunc(c.lits, holds) {
				continue
			}
			kind := "original"
			if c.learnt {
				kind = "learnt"
			}
			return fmt.Errorf("%s clause %v is false", kind, c.lits)
		}
	}
	for pi, p := range s.pbs {
		if p == nil {
			continue
		}
		sum := int64(0)
		for i, l := range p.lits {
			if holds(l) {
				sum += p.weights[i]
			}
		}
		if sum > p.k {
			return fmt.Errorf("PB slot %d sums to %d > k=%d", pi, sum, p.k)
		}
	}
	return nil
}

// checkGeometry verifies the per-variable and per-literal arrays all agree
// on the variable count (index 0 is the unused sentinel slot), and that no
// AddClauseRef normalization mark or AddPBRef merge mark outlived its call.
func (s *Solver) checkGeometry() error {
	if n := s.nVars + 1; len(s.assigns) != n || len(s.level) != n || len(s.trailPos) != n ||
		len(s.reasons) != n || len(s.polarity) != n || len(s.decision) != n || len(s.scopeMark) != n ||
		len(s.scopeRank) != n || len(s.seen) != n || len(s.clauseMark) != n {
		return fmt.Errorf("per-variable arrays out of step with nVars=%d", s.nVars)
	}
	for v, m := range s.clauseMark {
		if m != 0 {
			return fmt.Errorf("clause normalization mark %d left on variable %d", m, v)
		}
	}
	if n := 2 * (s.nVars + 1); len(s.watches) != n || len(s.pbOcc) != n || len(s.pbMark) != n {
		return fmt.Errorf("per-literal arrays out of step with nVars=%d: %d watch lists, %d occurrence lists, %d merge marks, want %d",
			s.nVars, len(s.watches), len(s.pbOcc), len(s.pbMark), n)
	}
	for idx, m := range s.pbMark {
		if m != 0 {
			return fmt.Errorf("PB merge mark %d left on literal %d", m, litFromIndex(idx))
		}
	}
	return nil
}

// checkTrail verifies the level-0 trail and the assignment arrays describe
// the same state, and that no surviving reason names a retired PB slot.
func (s *Solver) checkTrail() error {
	assigned := 0
	for v := 1; v <= s.nVars; v++ {
		if s.assigns[v] != lUndef {
			assigned++
		}
	}
	if assigned != len(s.trail) {
		return fmt.Errorf("%d variables assigned but the trail holds %d literals", assigned, len(s.trail))
	}
	for i, l := range s.trail {
		v := l.Var()
		if v < 1 || v > s.nVars {
			return fmt.Errorf("trail[%d] names out-of-range variable %d", i, v)
		}
		if s.value(l) != lTrue {
			return fmt.Errorf("trail literal %d is not true", l)
		}
		if s.level[v] != 0 {
			return fmt.Errorf("trail variable %d carries level %d on the level-0 trail", v, s.level[v])
		}
		if int(s.trailPos[v]) != i {
			return fmt.Errorf("trail variable %d records position %d but sits at %d", v, s.trailPos[v], i)
		}
		if r := s.reasons[v]; r.pb != 0 {
			pi := int(r.pb - 1)
			if pi >= len(s.pbs) || s.pbs[pi] == nil {
				return fmt.Errorf("trail variable %d's reason names retired PB slot %d", v, pi)
			}
		}
	}
	return nil
}

// checkHeap verifies branch-heap discipline: auxiliary (defined) variables
// never become branchable, and during a SolveAssuming call the heap holds
// every unassigned decision variable of the call's scope and nothing
// outside it — a variable missing from the heap would silently shrink the
// call's search, an extra one would branch outside the scope. Between
// calls the heap is the last call's leftover, so only the first rule
// applies.
func (s *Solver) checkHeap() error {
	for v := 1; v <= s.nVars; v++ {
		inScope := s.scopeMark[v] == s.scopeEpoch
		switch {
		case !s.decision[v] && s.order.inHeap(v):
			return fmt.Errorf("auxiliary variable %d is in the branch heap", v)
		case !s.inCall:
		case !inScope && s.order.inHeap(v):
			return fmt.Errorf("out-of-scope variable %d is in the branch heap", v)
		case inScope && s.assigns[v] == lUndef && !s.order.inHeap(v):
			return fmt.Errorf("unassigned decision variable %d is missing from the branch heap", v)
		}
	}
	return nil
}

// checkClauseList audits one clause database: literal ranges, watcher
// coverage for live multi-literal clauses, and closure of the level-0
// trail under unit propagation. Unit learnt clauses are stored unwatched
// and make no closure promise (see the file comment); original clauses are
// always stored with at least two literals.
func (s *Solver) checkClauseList(cs []*clause, kind string) error {
	for _, c := range cs {
		if c.deleted {
			if kind == "learnt" {
				return fmt.Errorf("deleted clause %v still in the learnt list", c.lits)
			}
			continue // lingers on watch lists until lazy compaction; nothing to audit
		}
		if len(c.lits) == 0 {
			return fmt.Errorf("empty %s clause stored", kind)
		}
		if kind == "original" && len(c.lits) < 2 {
			return fmt.Errorf("unit original clause %v stored; units are enqueued, never stored", c.lits)
		}
		for _, l := range c.lits {
			if l == 0 || l.Var() > s.nVars {
				return fmt.Errorf("%s clause %v holds out-of-range literal %d", kind, c.lits, l)
			}
		}
		if len(c.lits) < 2 {
			continue
		}
		for _, w := range [2]Lit{c.lits[0], c.lits[1]} {
			if !s.onWatchList(c, w) {
				return fmt.Errorf("%s clause %v is not on the watch list of its watched literal %d", kind, c.lits, w)
			}
		}
		satisfied, undef := false, 0
		for _, l := range c.lits {
			switch s.value(l) {
			case lTrue:
				satisfied = true
			case lUndef:
				undef++
			}
		}
		if !satisfied {
			switch undef {
			case 0:
				return fmt.Errorf("%s clause %v is falsified at level 0 with ok still true", kind, c.lits)
			case 1:
				return fmt.Errorf("%s clause %v is unit at level 0 but its forced literal was never propagated", kind, c.lits)
			}
		}
	}
	return nil
}

// onWatchList reports whether clause c appears on the watch list keyed by
// watched literal w (lists are keyed by the literal whose truth triggers
// the clause, i.e. the watched literal's negation).
func (s *Solver) onWatchList(c *clause, w Lit) bool {
	for _, wc := range s.watches[w.Neg().index()] {
		if wc == c {
			return true
		}
	}
	return false
}

// checkPBState audits the pseudo-Boolean subsystem: slot/free-list
// discipline (pbs[i] == nil exactly when i is on the free list, pbActive
// counts the live slots), per-constraint counter state against the trail,
// exactly-once occurrence coverage in both directions (each literal of a
// live constraint has one entry, with its weight, on its list — checkPB —
// and the lists hold no entry beyond those), and closure of the level-0
// trail under PB propagation.
func (s *Solver) checkPBState() error {
	if len(s.pbGens) < len(s.pbs) {
		return fmt.Errorf("%d generation counters for %d PB slots", len(s.pbGens), len(s.pbs))
	}
	free := make(map[int32]bool, len(s.pbFree))
	for _, pi := range s.pbFree {
		if int(pi) >= len(s.pbs) {
			return fmt.Errorf("free list names out-of-range PB slot %d", pi)
		}
		if free[pi] {
			return fmt.Errorf("PB slot %d is on the free list twice", pi)
		}
		if s.pbs[pi] != nil {
			return fmt.Errorf("live PB slot %d is on the free list", pi)
		}
		free[pi] = true
	}
	live, terms := 0, 0
	for pi, p := range s.pbs {
		if p == nil {
			if !free[int32(pi)] {
				return fmt.Errorf("empty PB slot %d is missing from the free list", pi)
			}
			continue
		}
		live++
		terms += len(p.lits)
		if err := s.checkPB(int32(pi), p); err != nil {
			return err
		}
	}
	if live != s.pbActive {
		return fmt.Errorf("pbActive is %d but %d slots hold live constraints", s.pbActive, live)
	}
	entries := 0
	for idx, occ := range s.pbOcc {
		for _, o := range occ {
			if int(o.pi) >= len(s.pbs) || s.pbs[o.pi] == nil {
				return fmt.Errorf("occurrence list %d names retired PB slot %d", idx, o.pi)
			}
		}
		entries += len(occ)
	}
	// Every literal of every live constraint owns exactly one entry
	// (checkPB), so any surplus is an entry for a literal its constraint
	// does not contain.
	if entries != terms {
		return fmt.Errorf("occurrence lists hold %d entries but live PB constraints have %d literals", entries, terms)
	}
	return nil
}

// checkPB audits one live PB constraint: representation coherence
// (lits/weights/maxW agree, weights positive), the incremental sumTrue
// counter against the actual trail, exactly-once membership on its
// literals' occurrence lists with the literal's weight, and the absence of
// pending PB propagation. A literal listed twice shares one entry, or
// owns two: checkPBState's entry count or the exactly-once rule catches
// it.
func (s *Solver) checkPB(pi int32, p *pbConstraint) error {
	if len(p.lits) != len(p.weights) {
		return fmt.Errorf("PB slot %d representation out of step: %d lits, %d weights", pi, len(p.lits), len(p.weights))
	}
	sum, maxW := int64(0), int64(0)
	for i, l := range p.lits {
		if l == 0 || l.Var() > s.nVars {
			return fmt.Errorf("PB slot %d holds out-of-range literal %d", pi, l)
		}
		w := p.weights[i]
		if w <= 0 {
			return fmt.Errorf("PB slot %d holds non-positive weight %d", pi, w)
		}
		if w > maxW {
			maxW = w
		}
		if s.value(l) == lTrue {
			sum += w
		}
	}
	if maxW != p.maxW {
		return fmt.Errorf("PB slot %d caches maxW=%d but the heaviest weight is %d", pi, p.maxW, maxW)
	}
	if sum != p.sumTrue {
		return fmt.Errorf("PB slot %d counter out of sync: sumTrue=%d but the trail satisfies weight %d", pi, p.sumTrue, sum)
	}
	if p.sumTrue > p.k {
		return fmt.Errorf("PB slot %d is violated at level 0 (sumTrue=%d > k=%d) with ok still true", pi, p.sumTrue, p.k)
	}
	for i, l := range p.lits {
		n := 0
		for _, o := range s.pbOcc[l.index()] {
			if o.pi != pi {
				continue
			}
			n++
			if o.w != p.weights[i] {
				return fmt.Errorf("occurrence entry of literal %d in PB slot %d carries weight %d, the constraint's is %d", l, pi, o.w, p.weights[i])
			}
		}
		if n != 1 {
			return fmt.Errorf("PB slot %d appears %d times on the occurrence list of literal %d; want exactly once", pi, n, l)
		}
	}
	for i, l := range p.lits {
		if s.value(l) == lUndef && p.sumTrue+p.weights[i] > p.k {
			return fmt.Errorf("PB slot %d forces literal %d at level 0 but it was never propagated", pi, l.Neg())
		}
	}
	return nil
}

// litFromIndex inverts Lit.index: 2v -> +v, 2v+1 -> -v.
func litFromIndex(idx int) Lit {
	if idx%2 == 1 {
		return Lit(-int32(idx / 2))
	}
	return Lit(int32(idx / 2))
}

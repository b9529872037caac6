package sat

// This file is the solver's support surface for live-universe skeleton
// extension (internal/concretize.Session.Extend): stable clause handles
// that let an encoder retract a clause it is about to re-emit in widened
// form, plus ForgetLearnts, which drops every learnt clause and rebuilds
// the level-0 trail from its axioms.
//
// Why widening needs both. A CDCL solver's learnt clauses are resolution
// consequences of the clause database; retracting a clause and re-adding a
// strictly weaker one (a dependency disjunction gaining a candidate, an
// exactly-one row gaining a version) invalidates any learnt clause whose
// derivation used the retracted original. Worse, consequences can be
// *units*: a level-0 assignment forced through a learnt clause — or
// through an original clause that has since been retracted — is an
// irreversible fact about the OLD formula. ForgetLearnts therefore does
// not just clear the learnt database: it unwinds the entire level-0 trail
// and re-enqueues only the axioms (literals with no clause reason: direct
// AddClause units, guard retirements, PB-forced literals), then
// re-propagates over the surviving clause database. Everything still
// implied is re-derived; everything that depended on a learnt or detached
// clause is released.

// ClauseRef is a stable handle for a clause stored by AddClauseRef,
// consumed by DetachClause. The zero value refers to no clause. A handle
// stays valid until its clause is detached; detaching twice is a no-op.
type ClauseRef struct{ c *clause }

// Valid reports whether the handle refers to a live (stored, not yet
// detached) clause.
func (r ClauseRef) Valid() bool { return r.c != nil && !r.c.deleted }

// AddClause adds a clause. Returns false if the solver is already in an
// unsatisfiable state at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	_, ok := s.AddClauseRef(lits...)
	return ok
}

// AddClauseRef is AddClause returning a stable handle to the stored
// clause, so callers that later retract it (DetachClause, to re-emit a
// widened form) can name it. The handle is zero when no clause object was
// stored: the clause normalized away (satisfied at level 0, tautology) or
// collapsed to a unit, which is enqueued directly on the permanent level-0
// trail. The boolean matches AddClause: false only on top-level
// unsatisfiability.
func (s *Solver) AddClauseRef(lits ...Lit) (ClauseRef, bool) {
	if !s.ok {
		return ClauseRef{}, false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Normalize: drop false lits and duplicates, detect tautology/satisfied.
	// The kept literals go to the solver's scratch, each marked on its
	// variable; every exit from the scan unmarks them.
	out := s.addBuf[:0]
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			s.unmark(out)
			panic("sat: bad literal")
		}
		switch s.value(l) {
		case lTrue:
			s.unmark(out)
			return ClauseRef{}, true // already satisfied
		case lFalse:
			continue
		}
		switch s.clauseMark[l.Var()] {
		case l:
			continue // duplicate
		case l.Neg():
			s.unmark(out)
			return ClauseRef{}, true // tautology
		}
		s.clauseMark[l.Var()] = l
		out = append(out, l)
	}
	s.unmark(out)
	s.addBuf = out
	switch len(out) {
	case 0:
		s.ok = false
		return ClauseRef{}, false
	case 1:
		if !s.enqueue(out[0], reason{}) {
			s.ok = false
			return ClauseRef{}, false
		}
		if s.propagate() != nil {
			s.ok = false
			return ClauseRef{}, false
		}
		return ClauseRef{}, true
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return ClauseRef{c: c}, true
}

// unmark clears the normalization marks of the kept literals.
func (s *Solver) unmark(kept []Lit) {
	for _, l := range kept {
		s.clauseMark[l.Var()] = 0
	}
}

// DetachClause retracts a stored clause: it stops propagating immediately
// and is dropped from watch lists lazily (propagation already skips and
// compacts deleted clauses). Must be called at decision level 0. Detaching
// an invalid or already-detached handle is a no-op.
//
// Retracting a clause weakens the formula, so level-0 assignments that
// were propagated through it — and every learnt clause — may no longer be
// consequences. Callers that detach anything must call ForgetLearnts
// before the next solve; the concretizer's Extend does this once up front.
func (s *Solver) DetachClause(r ClauseRef) {
	if r.c == nil || r.c.deleted {
		return
	}
	if s.decisionLevel() != 0 {
		panic("sat: DetachClause above decision level 0")
	}
	r.c.deleted = true
	s.detached++
	// Compact the clause list once detached clauses dominate, so a churning
	// session's memory tracks its live formula, not its edit history.
	if s.detached > 32 && s.detached > len(s.clauses)/2 {
		keep := s.clauses[:0]
		for _, c := range s.clauses {
			if !c.deleted {
				keep = append(keep, c)
			}
		}
		s.clauses = keep
		s.detached = 0
	}
	s.checkInvariants("DetachClause")
}

// RemovePB retracts a live PB constraint by handle: it is detached from
// the propagation structures and its slot recycled, exactly like the
// internal retirement path RetireGuard uses. Stale or zero handles are
// no-ops (the constraint is already gone), which lets callers
// unconditionally remove-and-re-add a row they are widening. Must be
// called at decision level 0.
func (s *Solver) RemovePB(ref PBRef) {
	if !ref.Valid() {
		return
	}
	if s.decisionLevel() != 0 {
		panic("sat: RemovePB above decision level 0")
	}
	pi := ref.slot - 1
	if int(pi) >= len(s.pbs) || s.pbs[pi] == nil || s.pbGens[pi] != ref.gen {
		return
	}
	s.removePB(pi)
	s.checkInvariants("RemovePB")
}

// ForgetLearnts drops the entire learnt-clause database and rebuilds the
// level-0 trail from its axioms: literals whose reason is not a clause —
// direct AddClause units, RetireGuard fixes, and PB-forced assignments —
// are re-enqueued in trail order and re-propagated over the current clause
// database. Level-0 facts that were derived through a learnt clause (or
// through an original clause since retracted by DetachClause) and are no
// longer implied simply do not come back. Must be called at decision level
// 0; VSIDS activity and saved phases are kept.
func (s *Solver) ForgetLearnts() {
	if s.decisionLevel() != 0 {
		panic("sat: ForgetLearnts above decision level 0")
	}
	if !s.ok {
		return
	}
	for _, c := range s.learnts {
		c.deleted = true
	}
	s.learnts = s.learnts[:0]

	// Unwind the level-0 trail, keeping the axioms in assignment order.
	axioms := make([]Lit, 0, len(s.trail))
	for _, l := range s.trail {
		if s.reasons[l.Var()].cl == nil {
			axioms = append(axioms, l)
		}
	}
	for i := len(s.trail) - 1; i >= 0; i-- {
		l := s.trail[i]
		v := l.Var()
		for _, o := range s.pbOcc[l.index()] {
			s.pbs[o.pi].sumTrue -= o.w
		}
		s.assigns[v] = lUndef
		s.reasons[v] = reason{}
	}
	s.trail = s.trail[:0]
	s.qhead = 0

	// Re-assert the axioms and close under propagation. The axioms were
	// jointly consistent on the old trail and the clause set only shrank,
	// so neither step can conflict; the checks are defensive.
	for _, l := range axioms {
		if !s.enqueue(l, reason{}) {
			s.ok = false
			return
		}
	}
	if s.propagate() != nil {
		s.ok = false
	}
	s.checkInvariants("ForgetLearnts")
}

// FixedFalse reports whether the literal is permanently falsified:
// assigned false on the level-0 trail. The encoder uses it to recognize
// dead variables (versions proven unbuildable at the top level), which a
// skeleton extension cannot revive and must re-encode under fresh
// variables instead.
func (s *Solver) FixedFalse(l Lit) bool {
	v := l.Var()
	return s.assigns[v] != lUndef && s.level[v] == 0 && s.value(l) == lFalse
}

// NumClauses returns the number of stored (non-detached) original clauses.
func (s *Solver) NumClauses() int { return len(s.clauses) - s.detached }

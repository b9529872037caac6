package sat

// PBTerm is one weighted literal of a pseudo-Boolean constraint.
type PBTerm struct {
	Lit    Lit
	Weight int64
}

// pbConstraint represents sum(w_i * l_i) <= k with counter-based
// propagation: sumTrue tracks the weight of currently-true literals and is
// maintained incrementally by enqueue/cancelUntil. Each literal appears
// once (AddPBRef merges duplicates), and each has one entry on its
// occurrence list carrying its weight, so the counter updates read the
// weight there instead of looking it up in the constraint.
type pbConstraint struct {
	lits    []Lit
	weights []int64
	k       int64
	sumTrue int64
	maxW    int64
}

// pbOccEntry is one occurrence of a literal in a live PB constraint: the
// constraint's slot and the literal's weight in it (weights[i] where
// lits[i] is the literal).
type pbOccEntry struct {
	pi int32
	w  int64
}

// PBRef is a stable handle for a live PB constraint, returned by AddPBRef
// and consumed by TightenPB. The zero value refers to no constraint.
// Handles are generation-checked: once the constraint is retired (its slot
// recycled by a later AddPB), the stale handle is detected rather than
// silently aliasing the slot's new tenant.
type PBRef struct {
	slot int32  // constraint slot + 1; 0 means "no constraint"
	gen  uint32 // slot generation at hand-out time
}

// Valid reports whether the handle refers to a constraint at all (it may
// still be stale; TightenPB checks the generation).
func (r PBRef) Valid() bool { return r.slot != 0 }

// AddPB adds the constraint sum(terms) <= k. Terms with non-positive
// weights are rejected; duplicate literals are merged. Literal order inside
// the constraint follows first appearance in terms, keeping propagation —
// and therefore the whole search — deterministic. Returns false if the
// solver becomes unsatisfiable at the top level.
func (s *Solver) AddPB(terms []PBTerm, k int64) bool {
	_, ok := s.AddPBRef(terms, k)
	return ok
}

// AddPBRef is AddPB returning a stable handle to the new constraint, so
// callers that later strengthen the bound in place (TightenPB) can name
// it. On failure (top-level unsatisfiability) the handle is zero.
func (s *Solver) AddPBRef(terms []PBTerm, k int64) (PBRef, bool) {
	if !s.ok {
		return PBRef{}, false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddPB above decision level 0")
	}
	for _, t := range terms {
		if t.Weight <= 0 {
			panic("sat: non-positive PB weight")
		}
		if t.Lit == 0 || t.Lit.Var() > s.nVars {
			panic("sat: bad PB literal")
		}
	}
	// Merge duplicates in first-appearance order: pbMark holds a kept
	// literal's position + 1 until the marks are cleared below, before any
	// return. Every term was validated first, so no panic leaves a mark.
	p := &pbConstraint{lits: make([]Lit, 0, len(terms)), weights: make([]int64, 0, len(terms)), k: k}
	for _, t := range terms {
		if j := s.pbMark[t.Lit.index()]; j != 0 {
			p.weights[j-1] += t.Weight
			continue
		}
		p.lits = append(p.lits, t.Lit)
		p.weights = append(p.weights, t.Weight)
		s.pbMark[t.Lit.index()] = int32(len(p.lits))
	}
	for i, l := range p.lits {
		s.pbMark[l.index()] = 0
		w := p.weights[i]
		if w > p.maxW {
			p.maxW = w
		}
		// already-true literals at level 0 count immediately
		if s.value(l) == lTrue {
			p.sumTrue += w
		}
	}
	if p.sumTrue > p.k {
		s.ok = false
		return PBRef{}, false
	}
	var pi int32
	if n := len(s.pbFree); n > 0 {
		pi = s.pbFree[n-1]
		s.pbFree = s.pbFree[:n-1]
		s.pbs[pi] = p
	} else {
		s.pbs = append(s.pbs, p)
		pi = int32(len(s.pbs) - 1)
	}
	for int(pi) >= len(s.pbGens) {
		s.pbGens = append(s.pbGens, 0)
	}
	s.pbActive++
	for i, l := range p.lits {
		s.pbOcc[l.index()] = append(s.pbOcc[l.index()], pbOccEntry{pi: pi, w: p.weights[i]})
	}
	ref := PBRef{slot: pi + 1, gen: s.pbGens[pi]}
	// initial propagation: literals too heavy to ever be true
	for i, l := range p.lits {
		if s.value(l) == lUndef && p.sumTrue+p.weights[i] > p.k {
			if !s.enqueue(l.Neg(), reason{pb: pi + 1}) {
				s.ok = false
				return PBRef{}, false
			}
		}
	}
	if s.propagate() != nil {
		s.ok = false
		return PBRef{}, false
	}
	return ref, true
}

// TightenPB lowers the bound of a live PB constraint in place: the
// constraint sum(terms) <= k becomes sum(terms) <= newK with newK < k.
// Because lowering k only ever strengthens the constraint, no watcher or
// occurrence rebuild is needed, every clause learnt from the weaker bound
// remains a valid consequence, and the counter state (sumTrue) carries
// over untouched — which is what lets a branch-and-bound descent install
// its objective bound once and ratchet it downward for the price of an
// integer store plus any newly forced propagations.
//
// Must be called at decision level 0 (between solves): tightening can
// force literals, and those assignments must land on the permanent level-0
// trail. Panics on a stale or zero handle and on a non-strengthening newK
// (>= the current bound). Returns false if the solver becomes
// unsatisfiable at the top level, exactly like AddPB.
func (s *Solver) TightenPB(ref PBRef, newK int64) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: TightenPB above decision level 0")
	}
	if !ref.Valid() {
		panic("sat: TightenPB on zero PBRef")
	}
	pi := ref.slot - 1
	if int(pi) >= len(s.pbs) || s.pbs[pi] == nil || s.pbGens[pi] != ref.gen {
		panic("sat: TightenPB on retired PB constraint")
	}
	p := s.pbs[pi]
	if newK >= p.k {
		panic("sat: TightenPB must strengthen (newK >= current bound)")
	}
	p.k = newK
	if p.sumTrue > p.k {
		s.ok = false
		return false
	}
	// Newly forced literals: too heavy to ever be true under the lower
	// bound (mirrors AddPB's initial propagation).
	for i, l := range p.lits {
		if s.value(l) == lUndef && p.sumTrue+p.weights[i] > p.k {
			if !s.enqueue(l.Neg(), reason{pb: pi + 1}) {
				s.ok = false
				return false
			}
		}
	}
	if s.propagate() != nil {
		s.ok = false
		return false
	}
	s.checkInvariants("TightenPB")
	return true
}

// RetireGuard permanently retires a guard literal used to activate a
// temporary PB constraint (e.g. a branch-and-bound objective bound): it
// fixes the guard false at the top level and garbage-collects every PB
// constraint the falsified guard makes vacuous. Retired constraint slots
// are recycled by later AddPB calls, so a solve loop that adds and retires
// one guarded constraint per round runs in constant PB memory. Must be
// called at decision level 0. Returns false if the solver is (or becomes)
// unsatisfiable at the top level.
//
// Only constraints containing the positive guard whose remaining weights
// sum to at most k are removed: with the guard false such a constraint can
// never again propagate or conflict, so dropping it preserves the model
// set, and clauses learnt while the guard was assumed all contain the
// guard's negation and remain valid consequences of the fixed formula.
// Constraints the falsified guard does not make vacuous — ones mentioning
// the guard's negation (now permanently contributing weight), or ones the
// guard's weight was not large enough to neutralize — are left attached
// and stay enforced.
func (s *Solver) RetireGuard(guard Lit) bool {
	if s.decisionLevel() != 0 {
		panic("sat: RetireGuard above decision level 0")
	}
	if guard == 0 || guard.Var() > s.nVars {
		panic("sat: bad guard literal")
	}
	// removePB compacts the guard's occurrence list in place, shifting the
	// entries after the removed one down by one, so the walk advances only
	// past a constraint it keeps.
	for i := 0; i < len(s.pbOcc[guard.index()]); {
		pi := s.pbOcc[guard.index()][i].pi
		p := s.pbs[pi]
		sumOther := int64(0)
		for j := range p.lits {
			if p.lits[j] != guard {
				sumOther += p.weights[j]
			}
		}
		if sumOther <= p.k {
			s.removePB(pi)
			continue
		}
		i++
	}
	if !s.ok {
		return false
	}
	ok := s.AddClause(guard.Neg())
	s.checkInvariants("RetireGuard")
	return ok
}

// removePB detaches PB constraint pi from all occurrence lists, clears any
// stale reason references to it on the (level-0) trail, and recycles its
// slot for future AddPB calls.
func (s *Solver) removePB(pi int32) {
	p := s.pbs[pi]
	if p == nil {
		return
	}
	for _, l := range p.lits {
		occ := s.pbOcc[l.index()]
		j := 0
		for _, o := range occ {
			if o.pi != pi {
				occ[j] = o
				j++
			}
		}
		s.pbOcc[l.index()] = occ[:j]
		// Level-0 assignments may still name this constraint as their
		// reason; conflict analysis never dereferences level-0 reasons, but
		// clearing them keeps slot recycling airtight. A constraint only
		// ever forces its own literals, so only their variables can name it
		// (and an unassigned variable's reason is already clear).
		if v := l.Var(); s.reasons[v].pb == pi+1 {
			s.reasons[v] = reason{}
		}
	}
	s.pbs[pi] = nil
	s.pbGens[pi]++ // invalidate outstanding PBRef handles to this slot
	s.pbFree = append(s.pbFree, pi)
	s.pbActive--
}

// ActivePBs returns the number of PB constraints currently attached to the
// propagation structures (added and not retired).
func (s *Solver) ActivePBs() int { return s.pbActive }

// PBSlots returns the number of PB constraint slots ever allocated,
// including recycled ones. A solve loop that retires its temporary
// constraints keeps this bounded.
func (s *Solver) PBSlots() int { return len(s.pbs) }

// PBOccupancy returns the total length of all PB occurrence lists — the
// per-assignment bookkeeping cost. Retiring a constraint removes its
// occurrences, so this is a direct memory/time regression signal.
func (s *Solver) PBOccupancy() int {
	n := 0
	for _, occ := range s.pbOcc {
		n += len(occ)
	}
	return n
}

// propagatePB handles PB constraints after literal l became true. The sum
// update itself happened in enqueue; here we detect conflicts and force
// literals whose weight no longer fits.
func (s *Solver) propagatePB(l Lit) *clause {
	for _, o := range s.pbOcc[l.index()] {
		pi, p := o.pi, s.pbs[o.pi]
		if p.sumTrue > p.k {
			return s.pbConflictClause(p)
		}
		slack := p.k - p.sumTrue
		if p.maxW <= slack {
			continue
		}
		for i, q := range p.lits {
			if p.weights[i] > slack && s.value(q) == lUndef {
				if !s.enqueue(q.Neg(), reason{pb: pi + 1}) {
					return s.pbConflictClause(p)
				}
			}
		}
	}
	return nil
}

// pbConflictClause synthesizes a conflicting clause (all literals false)
// from the true literals of a violated PB constraint. The returned clause
// is a per-solver scratch object valid only until the next PB conflict:
// conflict analysis consumes it immediately and never retains it, so
// reusing one backing array keeps the conflict-heavy descent rounds off
// the allocator.
func (s *Solver) pbConflictClause(p *pbConstraint) *clause {
	lits := s.pbConfl.lits[:0]
	for _, q := range p.lits {
		if s.value(q) == lTrue {
			lits = append(lits, q.Neg())
		}
	}
	s.pbConfl.lits = lits
	return &s.pbConfl
}

// pbReasonLits builds the reason clause for the assignment of variable v
// forced by PB constraint pi: the implied literal plus the negations of
// constraint literals that were already true when v was assigned. The
// returned slice is per-solver scratch, valid until the next call: analyze
// and redundant both consume a reason fully before requesting the next
// one, so a single buffer serves every PB reason in a search.
func (s *Solver) pbReasonLits(pi int, v int) []Lit {
	p := s.pbs[pi]
	var implied Lit
	if s.assigns[v] == lTrue {
		implied = Lit(int32(v))
	} else {
		implied = Lit(-int32(v))
	}
	lits := append(s.pbReasonBuf[:0], implied)
	vpos := s.trailPosOf(v)
	for _, q := range p.lits {
		if s.value(q) == lTrue && s.trailPosOf(q.Var()) < vpos {
			lits = append(lits, q.Neg())
		}
	}
	s.pbReasonBuf = lits
	return lits
}

func (s *Solver) trailPosOf(v int) int32 {
	if v < len(s.trailPos) {
		return s.trailPos[v]
	}
	return 1 << 30
}

// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with pseudo-Boolean (weighted at-most-k) constraints.
//
// It is the search core underneath the concretizer in internal/concretize,
// playing the role clasp plays underneath Clingo in Spack's concretizer:
// clauses come from the package-universe encoding (exactly-one version
// selection, dependency implications, conflicts) and branch-and-bound
// optimization constraints.
//
// The design follows MiniSat: two-literal watching, first-UIP conflict
// analysis with clause minimization, VSIDS branching with an indexed heap,
// phase saving, Luby restarts, and activity-based learnt-clause deletion.
package sat

import (
	"math"
	"sync/atomic"
)

// Lit is a literal: +v for the positive literal of variable v, -v for its
// negation. Variables are numbered from 1.
type Lit int32

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// Var returns the variable of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Sign reports whether the literal is negative.
func (l Lit) Sign() bool { return l < 0 }

// index maps a literal to a dense array index: 2v for +v, 2v+1 for -v.
func (l Lit) index() int {
	if l < 0 {
		return int(-l)*2 + 1
	}
	return int(l) * 2
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver gave up because the conflict budget
	// (MaxConflicts) was exhausted.
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means no model exists under the given assumptions.
	Unsat
	// Canceled means the search was stopped by Interrupt before reaching
	// an answer. It is distinct from Unknown so callers can tell "the
	// budget ran out" from "someone asked us to stop" — a request whose
	// deadline fired must not be mistaken for a solver giving up.
	Canceled
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	case Canceled:
		return "CANCELED"
	default:
		return "UNKNOWN"
	}
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// clause is a disjunction of literals. Learnt clauses carry an activity for
// the deletion heuristic.
type clause struct {
	lits     []Lit
	activity float64
	learnt   bool
	deleted  bool
}

// reason records why a literal was assigned: a clause, a PB constraint, or
// a decision (nil).
type reason struct {
	cl *clause
	pb int32 // PB constraint index+1, or 0
}

func (r reason) isDecision() bool { return r.cl == nil && r.pb == 0 }

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars    int
	clauses  []*clause
	learnts  []*clause
	watches  [][]*clause // literal index -> watching clauses
	detached int         // clauses retracted by DetachClause, pending compaction

	assigns  []lbool // var -> value
	level    []int32 // var -> decision level
	trailPos []int32 // var -> position on trail when assigned
	reasons  []reason
	polarity []bool // phase saving: last assigned sign
	decision []bool // var -> branchable; false for auxiliary (defined) vars
	trail    []Lit
	trailLim []int
	qhead    int

	// VSIDS
	activity []float64
	varInc   float64
	order    *varHeap // the current call's branch heap (see markScope)

	// Per-call decision scope (see SolveAssuming). markScope stamps each
	// decision variable of a call's scope with a fresh epoch
	// (scopeMark[v] == scopeEpoch puts v in scope) and its position in
	// the scope (scopeRank; unscoped: its number). Epochs advance by one
	// per call, so marking costs O(|scope|) and stale marks never match.
	// The branch heap orders by activity and then rank, a total order:
	// ties follow the scope, and no decision depends on heap layout.
	// inCall is set from markScope until the call's search ends:
	// backtracking refills the heap only while it is set.
	scopeMark  []uint32
	scopeRank  []int32
	scopeEpoch uint32
	inCall     bool

	// PB constraints
	pbs      []*pbConstraint
	pbGens   []uint32       // slot -> generation, bumped on retirement (validates PBRefs)
	pbOcc    [][]pbOccEntry // literal index -> PB constraints watching that literal, with its weight
	pbFree   []int32        // retired constraint slots available for reuse
	pbActive int            // constraints added and not retired
	// pbMark is AddPBRef's duplicate-merging scratch: literal index -> the
	// literal's position + 1 in the constraint being built (0: not in it).
	// Every AddPBRef clears its marks before returning.
	pbMark []int32

	// AddClauseRef normalization scratch: clauseMark[v] is the literal of v
	// already kept in the clause being normalized (0: none), and addBuf
	// holds the kept literals. Every AddClauseRef return clears the marks.
	clauseMark []Lit
	addBuf     []Lit

	// conflict analysis scratch
	seen        []bool
	analyzeTmp  []Lit
	pbReasonBuf []Lit  // reused by pbReasonLits (one live reason at a time)
	pbConfl     clause // reused by pbConflictClause (one live conflict at a time)

	ok bool // false once a top-level conflict is found

	// statistics
	Conflicts    int64
	Decisions    int64
	Propagations int64

	// MaxConflicts bounds the search; <=0 means unbounded.
	MaxConflicts int64

	// learntBase is the constant part of the learnt-DB size limit that
	// triggers reduceLearnts. Tests lower it to force heavy reduction.
	learntBase int64

	conflictBudget int64
	model          []lbool

	// interrupted is the asynchronous stop flag set by Interrupt. It may
	// be written from any goroutine while Solve runs on another; the
	// search loop polls it and returns Canceled. It stays set until
	// ClearInterrupt so a cancellation can never be lost between solves.
	interrupted atomic.Bool
}

// restartBase scales the Luby restart schedule: a restart fires after
// luby(i) * restartBase conflicts.
const restartBase = 100

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1.0, ok: true, learntBase: 2000}
	s.order = newVarHeap(&s.activity, &s.scopeRank)
	// index 0 unused
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.trailPos = append(s.trailPos, 0)
	s.reasons = append(s.reasons, reason{})
	s.polarity = append(s.polarity, false)
	s.decision = append(s.decision, false)
	s.scopeMark = append(s.scopeMark, 0)
	s.scopeRank = append(s.scopeRank, 0)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.clauseMark = append(s.clauseMark, 0)
	s.watches = append(s.watches, nil, nil)
	s.pbOcc = append(s.pbOcc, nil, nil)
	s.pbMark = append(s.pbMark, 0, 0)
	return s
}

// Interrupt asynchronously stops an in-flight Solve, which returns
// Canceled at its next poll (per search-loop iteration, so promptly). It
// is safe to call from any goroutine, before or during a solve, and is
// sticky: every Solve returns Canceled until ClearInterrupt. Interrupting
// leaves the solver fully consistent — clauses, learnts, activity, and
// phases survive, so the same solver can serve the next request.
func (s *Solver) Interrupt() { s.interrupted.Store(true) }

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.interrupted.Store(false) }

// Interrupted reports whether the stop flag is currently set.
func (s *Solver) Interrupted() bool { return s.interrupted.Load() }

// ResetPhases restores every variable's saved phase to the initial
// polarity, negative-first. Phase saving assumes the last search's trajectory is
// worth resuming; after a search is abandoned mid-flight (Canceled, or a
// budget expiry deep in a refutation) the saved phases instead pin the
// next solve inside the abandoned — possibly unsatisfiable — subspace,
// which it then must refute clause by clause before it can look anywhere
// else. Callers that interrupt a solve should reset phases before reusing
// the solver; learnt clauses and activities are kept (they remain valid
// and useful).
func (s *Solver) ResetPhases() {
	for v := 1; v <= s.nVars; v++ {
		s.polarity[v] = true
	}
}

// SetPhase sets one variable's saved phase: the sign the search tries
// first the next time it branches on v. Phases are pure heuristics — they
// steer which model a search finds first, never what is satisfiable — so
// callers may seed them toward a known-good assignment. Branch-and-bound
// in internal/concretize seeds the objective's cheap polarity before
// every request it solves, so the descent's first incumbent starts near the
// optimum instead of wherever default polarities happen to land (on
// version-deep registry universes the difference is hundreds of descent
// rounds). Phase saving overwrites the seed as soon as the variable is
// assigned in search, exactly as it overwrites the initial polarity.
func (s *Solver) SetPhase(v int, val bool) {
	// polarity true means "assign -v first"; see allocVar.
	s.polarity[v] = !val
}

// NewVar allocates a fresh variable and returns its number (>= 1).
func (s *Solver) NewVar() int {
	v := s.allocVar()
	s.decision[v] = true
	return v
}

// NewAuxVar allocates an auxiliary (defined) variable: one the search
// never branches on. It participates in clauses, propagation, and
// conflict analysis like any other variable, but a model may leave it
// unassigned, in which case ValueOf reports it false.
//
// Soundness is the caller's contract: an auxiliary variable must be a
// definition literal — every clause in which it occurs positively must be
// satisfied whenever the variable is unassigned after propagation (the
// Tseitin shape "aux OR NOT antecedent" has this property: an unassigned
// aux means no antecedent forced it, so those clauses are satisfied by
// the antecedent's negation, and extending the model with aux = false
// satisfies the rest). Encoders use this for support literals, whose
// truth is only ever needed when propagation derives it. SolveAssuming's
// decision scope is the per-call form of the same contract.
func (s *Solver) NewAuxVar() int {
	return s.allocVar()
}

func (s *Solver) allocVar() int {
	s.nVars++
	v := s.nVars
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, 0)
	s.trailPos = append(s.trailPos, 0)
	s.reasons = append(s.reasons, reason{})
	// Initial phase: polarity true => assign -v first. Negative-first
	// means "try not installing / not selecting" before committing to a
	// version.
	s.polarity = append(s.polarity, true)
	s.decision = append(s.decision, false)
	s.scopeMark = append(s.scopeMark, 0)
	s.scopeRank = append(s.scopeRank, 0)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.clauseMark = append(s.clauseMark, 0)
	s.watches = append(s.watches, nil, nil)
	s.pbOcc = append(s.pbOcc, nil, nil)
	s.pbMark = append(s.pbMark, 0, 0)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) watchClause(c *clause) {
	// watch the negations of the first two literals
	w0 := c.lits[0].Neg().index()
	w1 := c.lits[1].Neg().index()
	s.watches[w0] = append(s.watches[w0], c)
	s.watches[w1] = append(s.watches[w1], c)
}

// enqueue assigns a literal true with the given reason. Returns false on
// an immediate conflict with the existing assignment.
func (s *Solver) enqueue(l Lit, r reason) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l < 0 {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.trailPos[v] = int32(len(s.trail))
	s.reasons[v] = r
	s.polarity[v] = l < 0
	s.trail = append(s.trail, l)
	// update PB sums
	for _, o := range s.pbOcc[l.index()] {
		s.pbs[o.pi].sumTrue += o.w
	}
	return true
}

// propagate performs unit propagation and PB propagation. Returns a
// conflicting clause description, or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		if c := s.propagateLit(l); c != nil {
			return c
		}
		if c := s.propagatePB(l); c != nil {
			return c
		}
	}
	return nil
}

func (s *Solver) propagateLit(l Lit) *clause {
	// clauses watching l (i.e., containing Neg(l) watched... we watch
	// Neg(first two lits); when l becomes true, clauses where l.Neg() is a
	// watched literal need attention. Our watch list key is the literal
	// whose truth triggers the clause: we stored watches under
	// lits[i].Neg().index(), so the trigger key is exactly l.index() when
	// lits[i] == l.Neg().
	ws := s.watches[l.index()]
	j := 0
	for i := 0; i < len(ws); i++ {
		c := ws[i]
		if c.deleted {
			continue
		}
		// Ensure the falsified literal is lits[1].
		falsified := l.Neg()
		if c.lits[0] == falsified {
			c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
		}
		// If lits[0] is true, clause satisfied; keep watch.
		if s.value(c.lits[0]) == lTrue {
			ws[j] = c
			j++
			continue
		}
		// Find a new literal to watch.
		found := false
		for k := 2; k < len(c.lits); k++ {
			if s.value(c.lits[k]) != lFalse {
				c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
				w := c.lits[1].Neg().index()
				s.watches[w] = append(s.watches[w], c)
				found = true
				break
			}
		}
		if found {
			continue // watch moved; drop from this list
		}
		// Clause is unit or conflicting.
		ws[j] = c
		j++
		if !s.enqueue(c.lits[0], reason{cl: c}) {
			// conflict: copy remaining watches and return
			j2 := j
			for i2 := i + 1; i2 < len(ws); i2++ {
				ws[j2] = ws[i2]
				j2++
			}
			s.watches[l.index()] = ws[:j2]
			s.qhead = len(s.trail)
			return c
		}
	}
	s.watches[l.index()] = ws[:j]
	return nil
}

// unassign pops trail entries down to the given trail size.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		l := s.trail[i]
		v := l.Var()
		for _, o := range s.pbOcc[l.index()] {
			s.pbs[o.pi].sumTrue -= o.w
		}
		s.assigns[v] = lUndef
		s.reasons[v] = reason{}
		if s.inCall && s.scopeMark[v] == s.scopeEpoch && !s.order.inHeap(v) {
			s.order.insert(v)
		}
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.order.inHeap(v) {
		s.order.decrease(v)
	}
}

func (s *Solver) decayVarActivity() { s.varInc /= 0.95 }

// reasonLits returns the literals of the reason for variable v's
// assignment (the implied literal first).
func (s *Solver) reasonLits(v int) []Lit {
	r := s.reasons[v]
	if r.cl != nil {
		return r.cl.lits
	}
	if r.pb != 0 {
		return s.pbReasonLits(int(r.pb-1), v)
	}
	return nil
}

// analyze performs 1UIP conflict analysis. Returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for asserting literal
	counter := 0
	var p Lit
	pReason := confl.lits
	idx := len(s.trail) - 1
	cleanup := []int{}

	for {
		for _, q := range pReason {
			if q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			cleanup = append(cleanup, v)
			s.bumpVar(v)
			if int(s.level[v]) == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// pick next literal from trail
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		pReason = s.reasonLits(v)
	}

	// Clause minimization: remove literals implied by the rest.
	minimized := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			minimized = append(minimized, q)
		}
	}
	learnt = minimized

	// compute backtrack level: max level among learnt[1:]
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, v := range cleanup {
		s.seen[v] = false
	}
	return learnt, btLevel
}

// redundant reports whether literal q in a learnt clause is implied by the
// other marked literals (simple recursive self-subsumption check).
func (s *Solver) redundant(q Lit) bool {
	v := q.Var()
	r := s.reasons[v]
	if r.isDecision() {
		return false
	}
	for _, l := range s.reasonLits(v) {
		lv := l.Var()
		if lv == v || s.seen[lv] || s.level[lv] == 0 {
			continue
		}
		return false
	}
	return true
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// SolveAssuming searches for a model under the given assumption literals.
// It is the incremental entry point: each call backtracks to decision
// level 0 and searches again, reusing the learnt-clause database, VSIDS
// activity, and saved phases accumulated by earlier calls on the same
// solver — no fresh solver or re-encoding is needed between calls.
// Assumptions are decided (in order) before any free variable; an Unsat
// result means unsatisfiable under these assumptions, not necessarily
// globally. On Sat, the model is retrievable via ValueOf until the next
// solve or constraint addition. It returns Unknown when the MaxConflicts
// budget is exhausted and Canceled when Interrupt stopped the search; both
// leave the solver consistent and reusable.
//
// scope is the call's decision priority list: the search branches only
// on the listed variables, highest VSIDS activity first and, among equal
// activities, in scope order; nil means every decision variable, in
// variable order. It reports Sat once every in-scope variable is
// assigned, so out-of-scope variables may stay unassigned in the model,
// where ValueOf reports them false. This is the per-call form of
// NewAuxVar's contract, and soundness is again the caller's: every
// constraint must hold once each variable the search left unassigned
// reads false. A sufficient shape is that every clause mentioning an
// out-of-scope variable holds a negative out-of-scope literal, and that
// PB constraints weigh out-of-scope variables only positively; then
// nothing in scope can force an out-of-scope variable true, a scoped
// model extends to a full model with the unassigned variables false, and
// scoped and unscoped calls agree on satisfiability. The satcheck build
// audits every scoped Sat verdict against the contract.
//
// goarxivlint:blocking cancel=interrupt
func (s *Solver) SolveAssuming(assumptions []Lit, scope []int) Status {
	s.markScope(scope)
	s.checkInvariants("solve entry")
	st := s.solve(assumptions)
	s.checkCallHeap()
	// The next call rebuilds the heap, so the closing backtrack need not
	// refill it.
	s.inCall = false
	s.cancelUntil(0)
	if st == Sat && scope != nil {
		s.checkScopedModel()
	}
	s.checkInvariants("solve exit")
	return st
}

// Solve is SolveAssuming over the given assumptions with every decision
// variable in scope.
//
// goarxivlint:blocking cancel=interrupt
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveAssuming(assumptions, nil)
}

// markScope opens a call: it stamps the scope's decision variables (nil:
// every decision variable) with a fresh epoch and their ranks, and builds
// the call's branch heap from the unassigned ones. A variable listed
// twice keeps its first position; auxiliary variables are never stamped.
func (s *Solver) markScope(scope []int) {
	if s.scopeEpoch == math.MaxUint32 {
		clear(s.scopeMark)
		s.scopeEpoch = 0
	}
	s.scopeEpoch++
	s.inCall = true
	s.order.clear()
	if scope == nil {
		for v := 1; v <= s.nVars; v++ {
			s.stamp(v, v)
		}
		return
	}
	for i, v := range scope {
		if v < 1 || v > s.nVars {
			panic("sat: scope names an out-of-range variable")
		}
		s.stamp(v, i)
	}
}

// stamp puts decision variable v in the open call's scope at rank.
func (s *Solver) stamp(v, rank int) {
	if !s.decision[v] || s.scopeMark[v] == s.scopeEpoch {
		return
	}
	s.scopeMark[v] = s.scopeEpoch
	s.scopeRank[v] = int32(rank)
	if s.assigns[v] == lUndef {
		s.order.insert(v)
	}
}

// solve is the search loop behind SolveAssuming. It returns at whatever
// decision level the search ended on; SolveAssuming backtracks to level 0
// once the call's heap is done with.
func (s *Solver) solve(assumptions []Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}
	s.conflictBudget = s.MaxConflicts

	restartNum := int64(1)
	conflictsSinceRestart := int64(0)
	restartLimit := luby(restartNum) * restartBase
	learntLimit := int64(len(s.clauses)/3) + s.learntBase

	for {
		// Poll the asynchronous stop flag once per iteration (every
		// propagation fixpoint / decision / conflict), so an Interrupt
		// from another goroutine is honored within microseconds.
		if s.interrupted.Load() {
			return Canceled
		}
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflictsSinceRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.decisionLevel() <= len(assumptions) {
				// Conflict within assumption levels: UNSAT under assumptions.
				return Unsat
			}
			learnt, btLevel := s.analyze(confl)
			if btLevel < len(assumptions) {
				btLevel = len(assumptions)
			}
			s.cancelUntil(btLevel)
			// Store even unit learnts as (unwatched) learnt clause objects
			// and use them as the assignment's reason: the level-0 trail
			// must be able to tell learnt-derived facts from axioms,
			// because ForgetLearnts releases the former when the formula
			// is weakened by a skeleton extension.
			c := &clause{lits: learnt, learnt: true, activity: s.varInc}
			s.learnts = append(s.learnts, c)
			if len(learnt) >= 2 {
				s.watchClause(c)
			}
			if !s.enqueue(learnt[0], reason{cl: c}) {
				s.ok = false
				return Unsat
			}
			s.decayVarActivity()
			if s.conflictBudget > 0 && s.Conflicts >= s.conflictBudget {
				return Unknown
			}
			continue
		}

		// restart?
		if conflictsSinceRestart >= restartLimit {
			restartNum++
			conflictsSinceRestart = 0
			restartLimit = luby(restartNum) * restartBase
			s.cancelUntil(len(assumptions))
			continue
		}
		// reduce learnt DB?
		if int64(len(s.learnts)) > learntLimit {
			s.reduceLearnts()
			learntLimit = learntLimit + learntLimit/10
		}

		// assumptions first
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// already satisfied: open an empty level to keep indices aligned
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, reason{})
			continue
		}

		// decide
		v := s.pickBranchVar()
		if v == 0 {
			// model found; reuse the model buffer across solves (callers
			// read it via ValueOf before the next solve)
			if cap(s.model) <= s.nVars {
				s.model = make([]lbool, s.nVars+1)
			} else {
				s.model = s.model[:s.nVars+1]
			}
			copy(s.model, s.assigns)
			return Sat
		}
		s.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		var l Lit
		if s.polarity[v] {
			l = Lit(-int32(v))
		} else {
			l = Lit(int32(v))
		}
		s.enqueue(l, reason{})
	}
}

func (s *Solver) pickBranchVar() int {
	for !s.order.empty() {
		if v := s.order.removeMin(); s.assigns[v] == lUndef {
			return v
		}
	}
	return 0
}

// locked reports whether c is currently the reason for some assignment.
// The implied literal is lits[0] at enqueue time, but watch-swapping in
// propagateLit can reorder lits afterwards, so every literal must be
// checked against the reason pointer of its variable, not just lits[0].
func (s *Solver) locked(c *clause) bool {
	for _, l := range c.lits {
		if s.value(l) == lTrue && s.reasons[l.Var()].cl == c {
			return true
		}
	}
	return false
}

func (s *Solver) reduceLearnts() {
	// sort learnts ascending by activity (simple selection of half)
	ls := s.learnts
	// insertion sort is too slow for large DBs; use a simple quicksort
	quickSortClauses(ls)
	keep := ls[:0]
	half := len(ls) / 2
	for i, c := range ls {
		if i < half && len(c.lits) > 2 && !s.locked(c) {
			c.deleted = true
		} else {
			keep = append(keep, c)
		}
	}
	s.learnts = keep
}

func quickSortClauses(cs []*clause) {
	if len(cs) < 2 {
		return
	}
	pivot := cs[len(cs)/2].activity
	i, j := 0, len(cs)-1
	for i <= j {
		for cs[i].activity < pivot {
			i++
		}
		for cs[j].activity > pivot {
			j--
		}
		if i <= j {
			cs[i], cs[j] = cs[j], cs[i]
			i++
			j--
		}
	}
	quickSortClauses(cs[:j+1])
	quickSortClauses(cs[i:])
}

// ValueOf returns the model value of variable v after a Sat result.
func (s *Solver) ValueOf(v int) bool {
	if s.model == nil || v >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// Okay reports whether the solver is still consistent at the top level.
func (s *Solver) Okay() bool { return s.ok }

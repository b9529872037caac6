package sat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// scopeFormula is a random formula built to SolveAssuming's scope
// contract: every clause that mentions an out-of-scope variable holds a
// negative out-of-scope literal, and PB rows weigh out-of-scope variables
// only positively.
type scopeFormula struct {
	n       int
	scope   []int
	clauses [][]Lit
	pbs     []scopePB
}

type scopePB struct {
	terms []PBTerm
	k     int64
}

func randomScopeFormula(rng *rand.Rand) scopeFormula {
	f := scopeFormula{n: 4 + rng.Intn(9)}
	in := make([]bool, f.n+1)
	for v := 1; v <= f.n; v++ {
		if rng.Intn(2) == 0 {
			in[v] = true
			f.scope = append(f.scope, v)
		}
	}
	randLit := func(v int) Lit {
		if rng.Intn(2) == 0 {
			return Lit(v).Neg()
		}
		return Lit(v)
	}
	for c := rng.Intn(3*f.n) + 1; c > 0; c-- {
		var lits []Lit
		firstOut := -1
		hasNegOut := false
		for _, v := range rng.Perm(f.n)[:1+rng.Intn(4)] {
			l := randLit(v + 1)
			if !in[l.Var()] {
				if firstOut < 0 {
					firstOut = len(lits)
				}
				hasNegOut = hasNegOut || l.Sign()
			}
			lits = append(lits, l)
		}
		if firstOut >= 0 && !hasNegOut {
			lits[firstOut] = lits[firstOut].Neg()
		}
		f.clauses = append(f.clauses, lits)
	}
	for p := rng.Intn(3); p > 0; p-- {
		var row scopePB
		var total int64
		for _, v := range rng.Perm(f.n)[:1+rng.Intn(f.n)] {
			l := Lit(v + 1)
			if in[v+1] {
				l = randLit(v + 1)
			}
			w := 1 + rng.Int63n(4)
			row.terms = append(row.terms, PBTerm{Lit: l, Weight: w})
			total += w
		}
		row.k = rng.Int63n(total + 1)
		f.pbs = append(f.pbs, row)
	}
	return f
}

// satisfiedBy reports whether the assignment (indexed by variable)
// satisfies the formula and the assumptions.
func (f scopeFormula) satisfiedBy(val func(v int) bool, assumps []Lit) bool {
	holds := func(l Lit) bool { return val(l.Var()) != l.Sign() }
	for _, a := range assumps {
		if !holds(a) {
			return false
		}
	}
	for _, c := range f.clauses {
		ok := false
		for _, l := range c {
			ok = ok || holds(l)
		}
		if !ok {
			return false
		}
	}
	for _, p := range f.pbs {
		var sum int64
		for _, t := range p.terms {
			if holds(t.Lit) {
				sum += t.Weight
			}
		}
		if sum > p.k {
			return false
		}
	}
	return true
}

// bruteForce decides the formula under the assumptions by enumeration.
func (f scopeFormula) bruteForce(assumps []Lit) Status {
	for m := 0; m < 1<<f.n; m++ {
		if f.satisfiedBy(func(v int) bool { return m>>(v-1)&1 == 1 }, assumps) {
			return Sat
		}
	}
	return Unsat
}

// TestSolveAssumingScopeAgreesWithUnscoped is the brute-force property
// test of the scope contract: on random formulas built to it, scoped and
// unscoped calls on one incremental solver agree with enumeration, and a
// scoped model extended with its unassigned variables false satisfies
// every constraint.
func TestSolveAssumingScopeAgreesWithUnscoped(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		f := randomScopeFormula(rng)
		s := New()
		for v := 1; v <= f.n; v++ {
			s.NewVar()
		}
		for _, c := range f.clauses {
			s.AddClause(c...)
		}
		for _, p := range f.pbs {
			s.AddPB(p.terms, p.k)
		}
		for round := 0; round < 4; round++ {
			var assumps []Lit
			for i := rng.Intn(3); i > 0 && len(f.scope) > 0; i-- {
				v := f.scope[rng.Intn(len(f.scope))]
				if rng.Intn(2) == 0 {
					assumps = append(assumps, Lit(v).Neg())
				} else {
					assumps = append(assumps, Lit(v))
				}
			}
			want := f.bruteForce(assumps)
			scoped := s.SolveAssuming(assumps, f.scope)
			if scoped == Sat && !f.satisfiedBy(s.ValueOf, assumps) {
				t.Fatalf("iter %d round %d: scoped model extended with false violates the formula %+v under %v", iter, round, f, assumps)
			}
			unscoped := s.SolveAssuming(assumps, nil)
			if scoped != want || unscoped != want {
				t.Fatalf("iter %d round %d: scoped %v, unscoped %v, enumeration %v on %+v under %v", iter, round, scoped, unscoped, want, f, assumps)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("iter %d round %d: %v", iter, round, err)
			}
		}
	}
}

// TestSolveAssumingScopeBranchesOnlyInScope: a scoped call decides only
// in-scope variables, leaves free out-of-scope ones unassigned, lets
// propagation set out-of-scope ones only false, and never puts one into
// its branch heap; scopes of earlier calls, including across an epoch
// wrap, never leak into later ones; and an unscoped call still branches
// on everything.
func TestSolveAssumingScopeBranchesOnlyInScope(t *testing.T) {
	s := New()
	vars := make([]int, 40)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// An implication chain over the first ten variables: an in-scope link
	// set false propagates false backwards to out-of-scope ones.
	for i := 0; i+1 < 10; i++ {
		s.AddClause(Lit(vars[i]).Neg(), Lit(vars[i+1]))
	}
	unassigned := func(v int) bool { return s.model[v] == lUndef }
	check := func(scope []int) {
		t.Helper()
		d0 := s.Decisions
		if st := s.SolveAssuming(nil, scope); st != Sat {
			t.Fatalf("scoped solve = %v, want SAT", st)
		}
		if d := s.Decisions - d0; d > int64(len(scope)) {
			t.Fatalf("scoped solve made %d decisions over a %d-variable scope", d, len(scope))
		}
		in := map[int]bool{}
		for _, v := range scope {
			in[v] = true
			if unassigned(v) {
				t.Fatalf("in-scope variable %d left unassigned", v)
			}
		}
		for i, v := range vars {
			switch {
			case in[v]:
			case s.order.inHeap(v):
				t.Fatalf("out-of-scope variable %d is in the call's branch heap", v)
			case unassigned(v):
			case i >= 10:
				t.Fatalf("free out-of-scope variable %d was assigned", v)
			case s.ValueOf(v):
				t.Fatalf("out-of-scope variable %d was set true", v)
			}
		}
	}
	check(vars[:10])
	check(vars[20:30])
	// The next scoped call wraps the epoch. Forge a mark from long before
	// the wrap that, kept, would read as already stamped in the new epoch,
	// so the call would never put vars[14] into its branch heap.
	s.scopeEpoch = math.MaxUint32
	s.scopeMark[vars[14]] = 1
	check(vars[5:15])
	check(vars[30:])
	check([]int{})
	if st := s.Solve(); st != Sat {
		t.Fatalf("unscoped solve = %v, want SAT", st)
	}
	for _, v := range vars {
		if unassigned(v) {
			t.Fatalf("unscoped solve left decision variable %d unassigned", v)
		}
	}

	// Backjumping returns only in-scope variables to the heap. Deciding a
	// false propagates o false and meets a conflict whose learnt unit a
	// backjumps to level 0, unassigning o again; the call must still make
	// just its two decisions and leave o unassigned.
	s = New()
	a, b, o := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Lit(a), Lit(o).Neg())
	s.AddClause(Lit(a), Lit(b))
	s.AddClause(Lit(a), Lit(b).Neg())
	if st := s.SolveAssuming(nil, []int{a, b}); st != Sat {
		t.Fatalf("scoped solve = %v, want SAT", st)
	}
	if s.Conflicts != 1 || s.Decisions != 2 || s.model[o] != lUndef {
		t.Fatalf("scoped solve made %d conflicts and %d decisions and left o %v; want 1, 2 and unassigned",
			s.Conflicts, s.Decisions, s.model[o])
	}
}

// TestSolveAssumingScopeAfterStop: after a scoped call stopped by
// Interrupt or by its MaxConflicts budget, the next call branches on its
// own scope, however the stopped call left the branch heap: a call over a
// different scope assigns every variable of its scope and decides nothing
// else, and an unscoped call assigns every variable.
func TestSolveAssumingScopeAfterStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Status
	}{{"interrupt", Canceled}, {"budget", Unknown}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			// The next call's scope: outside the stopped call's, first
			// and most active.
			out := make([]int, 8)
			for i := range out {
				out[i] = s.NewVar()
				s.bumpVar(out[i])
			}
			// Pigeonhole 11 into 10 under the assumption g: every pigeon's
			// hole clause carries !g, so the formula is hard under g and
			// satisfied by g false.
			g := s.NewVar()
			const pigeons, holes = 11, 10
			var scope []int
			php := make([][]int, pigeons)
			for i := range php {
				for h := 0; h < holes; h++ {
					php[i] = append(php[i], s.NewVar())
				}
				scope = append(scope, php[i]...)
				lits := []Lit{Lit(g).Neg()}
				for _, v := range php[i] {
					lits = append(lits, Lit(v))
				}
				s.AddClause(lits...)
			}
			for h := 0; h < holes; h++ {
				for i := 0; i < pigeons; i++ {
					for j := i + 1; j < pigeons; j++ {
						s.AddClause(Lit(php[i][h]).Neg(), Lit(php[j][h]).Neg())
					}
				}
			}
			var st Status
			if tc.want == Canceled {
				done := make(chan Status, 1)
				go func() { done <- s.SolveAssuming([]Lit{Lit(g)}, scope) }()
				time.Sleep(20 * time.Millisecond)
				s.Interrupt()
				st = <-done
				s.ClearInterrupt()
			} else {
				s.MaxConflicts = 200
				st = s.SolveAssuming([]Lit{Lit(g)}, scope)
				s.MaxConflicts = 0
			}
			if st != tc.want {
				t.Fatalf("scoped solve = %v, want %v", st, tc.want)
			}
			// As a session does after a stop: the abandoned search's
			// phases would pin the next call under g.
			s.ResetPhases()
			d0 := s.Decisions
			if st := s.SolveAssuming(nil, out); st != Sat {
				t.Fatalf("solve over another scope = %v, want SAT", st)
			}
			if d := s.Decisions - d0; d > int64(len(out)) {
				t.Fatalf("solve over another scope made %d decisions over a %d-variable scope", d, len(out))
			}
			for _, v := range out {
				if s.model[v] == lUndef {
					t.Fatalf("solve over another scope left its variable %d unassigned", v)
				}
			}
			if st := s.Solve(); st != Sat {
				t.Fatalf("unscoped solve = %v, want SAT", st)
			}
			for v := 1; v <= s.NumVars(); v++ {
				if s.model[v] == lUndef {
					t.Fatalf("unscoped solve left decision variable %d unassigned", v)
				}
			}
		})
	}
}

// TestSolveAssumingScopeOrdersTies: among variables of equal activity the
// scope is the call's branching priority (unscoped: variable order),
// whatever layout earlier calls left the heap in, and activity still
// comes first. Under an at-most-k row with every phase true, the first k
// decisions are the model's true variables; k = 2 also pins the order
// after the heap's first pop.
func TestSolveAssumingScopeOrdersTies(t *testing.T) {
	const n = 12
	for k := 1; k <= 2; k++ {
		s := New()
		vars := make([]int, n)
		terms := make([]PBTerm, n)
		for i := range vars {
			vars[i] = s.NewVar()
			terms[i] = PBTerm{Lit: Lit(vars[i]), Weight: 1}
		}
		if !s.AddPB(terms, int64(k)) {
			t.Fatal("AddPB failed")
		}
		// trueVars solves with every phase true and returns the model's
		// true variables in the scope's order (unscoped: variable order).
		trueVars := func(scope []int) []int {
			t.Helper()
			for _, v := range vars {
				s.SetPhase(v, true)
			}
			if st := s.SolveAssuming(nil, scope); st != Sat {
				t.Fatalf("k=%d: solve = %v, want SAT", k, st)
			}
			if scope == nil {
				scope = vars
			}
			var got []int
			for _, v := range scope {
				if s.ValueOf(v) {
					got = append(got, v)
				}
			}
			return got
		}
		rng := rand.New(rand.NewSource(int64(k)))
		perm := func() []int {
			scope := make([]int, n)
			for i, j := range rng.Perm(n) {
				scope[i] = vars[j]
			}
			return scope
		}
		for round := 0; round < 8; round++ {
			scope := perm()
			if got := trueVars(scope); !slices.Equal(got, scope[:k]) {
				t.Fatalf("k=%d round %d: true variables %v; want the scope's first %v of %v", k, round, got, scope[:k], scope)
			}
		}
		if got := trueVars(nil); !slices.Equal(got, vars[:k]) {
			t.Fatalf("k=%d unscoped: true variables %v; want the lowest-numbered %v", k, got, vars[:k])
		}
		hot := vars[n/2]
		s.bumpVar(hot)
		for round := 0; round < 4; round++ {
			if got := trueVars(perm()); !slices.Contains(got, hot) || len(got) != k {
				t.Fatalf("k=%d round %d: true variables %v; want %d of them, the most active %d among them", k, round, got, k, hot)
			}
		}
	}
}

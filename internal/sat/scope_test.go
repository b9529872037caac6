package sat

import (
	"math"
	"math/rand"
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
// in-scope variables, leaves free out-of-scope ones unassigned, and lets
// propagation set out-of-scope ones only false; scopes of earlier calls,
// including across an epoch wrap, never leak into later ones; and an
// unscoped call still branches on everything.
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
			case !s.order.inHeap(v):
				t.Fatalf("variable %d is missing from the branch heap after the call", v)
			case in[v] || unassigned(v):
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
	// the wrap that, kept, would read as "already set aside" afterwards.
	s.scopeEpoch = math.MaxUint32 - 1
	s.scopeMark[vars[39]] = 1
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
}

// TestSolveAssumingScopeRestoresHeapWhenStopped: a scoped call stopped by
// Interrupt or by its MaxConflicts budget still puts every variable it set
// aside back into the branch heap, so no unassigned decision variable is
// lost to later calls.
func TestSolveAssumingScopeRestoresHeapWhenStopped(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Status
	}{{"interrupt", Canceled}, {"budget", Unknown}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			// Out-of-scope variables come first and carry the highest
			// activity, so the first decision sets every one of them aside.
			out := make([]int, 8)
			for i := range out {
				out[i] = s.NewVar()
				s.bumpVar(out[i])
			}
			encodePHP(s, 11)
			var scope []int
			for v := len(out) + 1; v <= s.NumVars(); v++ {
				scope = append(scope, v)
			}
			var st Status
			if tc.want == Canceled {
				done := make(chan Status, 1)
				go func() { done <- s.SolveAssuming(nil, scope) }()
				time.Sleep(20 * time.Millisecond)
				s.Interrupt()
				st = <-done
				s.ClearInterrupt()
			} else {
				s.MaxConflicts = 200
				st = s.SolveAssuming(nil, scope)
			}
			if st != tc.want {
				t.Fatalf("scoped solve = %v, want %v", st, tc.want)
			}
			for v := 1; v <= s.NumVars(); v++ {
				if s.decision[v] && s.assigns[v] == lUndef && !s.order.inHeap(v) {
					t.Fatalf("unassigned decision variable %d is missing from the branch heap", v)
				}
			}
		})
	}
}

//go:build satcheck

package sat

import (
	"strings"
	"testing"
)

// checkedSolver builds a small solver with clauses, a PB constraint, and an
// auxiliary variable — enough structure that every invariant family has
// something to audit.
func checkedSolver(t *testing.T) (s *Solver, vars [4]int, aux int) {
	t.Helper()
	s = New()
	for i := range vars {
		vars[i] = s.NewVar()
	}
	aux = s.NewAuxVar()
	a, b, c, d := Lit(vars[0]), Lit(vars[1]), Lit(vars[2]), Lit(vars[3])
	if !s.AddClause(a, b) || !s.AddClause(a.Neg(), c) || !s.AddClause(b.Neg(), c, d) {
		t.Fatal("clause construction made the solver unsat")
	}
	// Tseitin-style definition for the aux var: aux OR NOT a.
	if !s.AddClause(Lit(aux), a.Neg()) {
		t.Fatal("aux definition made the solver unsat")
	}
	if !s.AddPB([]PBTerm{{a, 2}, {b, 3}, {d, 4}}, 6) {
		t.Fatal("PB constraint made the solver unsat")
	}
	return s, vars, aux
}

func TestCheckInvariantsCleanSolver(t *testing.T) {
	s, _, _ := checkedSolver(t)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("fresh solver fails audit: %v", err)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve = %v, want Sat", st)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("solved solver fails audit: %v", err)
	}
}

// TestCheckInvariantsDetectsCorruption injures the solver's internal state
// one invariant family at a time and proves the audit names the damage.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	tests := []struct {
		name    string
		corrupt func(t *testing.T, s *Solver, vars [4]int, aux int)
		want    string
	}{
		{
			name: "watch list missing a clause",
			corrupt: func(t *testing.T, s *Solver, _ [4]int, _ int) {
				c := s.clauses[0]
				key := c.lits[0].Neg().index()
				ws := s.watches[key][:0]
				for _, wc := range s.watches[key] {
					if wc != c {
						ws = append(ws, wc)
					}
				}
				s.watches[key] = ws
			},
			want: "not on the watch list",
		},
		{
			name: "PB counter out of sync",
			corrupt: func(t *testing.T, s *Solver, _ [4]int, _ int) {
				s.pbs[0].sumTrue++
			},
			want: "counter out of sync",
		},
		{
			name: "occurrence entry weight disagrees with its constraint",
			corrupt: func(t *testing.T, s *Solver, vars [4]int, _ int) {
				s.pbOcc[Lit(vars[1]).index()][0].w++
			},
			want: "carries weight",
		},
		{
			name: "auxiliary variable in the branch heap",
			corrupt: func(t *testing.T, s *Solver, _ [4]int, aux int) {
				s.order.insert(aux)
			},
			want: "auxiliary variable",
		},
		{
			name: "unassigned decision variable lost from the heap",
			corrupt: func(t *testing.T, s *Solver, vars [4]int, _ int) {
				// Open an unscoped call, as SolveAssuming does, then lose
				// its heap: every decision variable is unassigned.
				s.markScope(nil)
				for !s.order.empty() {
					s.order.removeMin()
				}
			},
			want: "missing from the branch heap",
		},
		{
			name: "out-of-scope variable in the heap",
			corrupt: func(t *testing.T, s *Solver, vars [4]int, _ int) {
				s.markScope([]int{vars[0]})
				s.order.insert(vars[1])
			},
			want: "out-of-scope variable",
		},
		{
			name: "retired PB slot missing from the free list",
			corrupt: func(t *testing.T, s *Solver, _ [4]int, _ int) {
				ref, ok := s.AddPBRef([]PBTerm{{Lit(s.NewVar()), 1}}, 1)
				if !ok {
					t.Fatal("AddPBRef failed")
				}
				s.RemovePB(ref)
				s.pbFree = s.pbFree[:len(s.pbFree)-1]
			},
			want: "missing from the free list",
		},
		{
			name: "propagation queue not drained",
			corrupt: func(t *testing.T, s *Solver, vars [4]int, _ int) {
				if !s.AddClause(Lit(vars[0])) {
					t.Fatal("unit clause failed")
				}
				s.qhead--
			},
			want: "queue not drained",
		},
		{
			name: "trail position desynchronized",
			corrupt: func(t *testing.T, s *Solver, vars [4]int, _ int) {
				if !s.AddClause(Lit(vars[0])) {
					t.Fatal("unit clause failed")
				}
				s.trailPos[s.trail[0].Var()] = 99
			},
			want: "records position",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, vars, aux := checkedSolver(t)
			tt.corrupt(t, s, vars, aux)
			err := s.CheckInvariants()
			if err == nil {
				t.Fatal("audit passed a corrupted solver")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("audit error = %q, want it to mention %q", err, tt.want)
			}
		})
	}
}

// TestSolvePanicsOnCorruptedState proves the boundary hooks fire: a solver
// whose watch lists were damaged must refuse to search under satcheck
// instead of silently computing with a broken index.
func TestSolvePanicsOnCorruptedState(t *testing.T) {
	s, _, _ := checkedSolver(t)
	c := s.clauses[0]
	key := c.lits[1].Neg().index()
	ws := s.watches[key][:0]
	for _, wc := range s.watches[key] {
		if wc != c {
			ws = append(ws, wc)
		}
	}
	s.watches[key] = ws
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Solve did not panic on a corrupted solver")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "invariant violation after solve entry") {
			t.Fatalf("panic = %v, want an invariant violation at solve entry", r)
		}
	}()
	s.Solve()
}

// TestSatCheckEnabled pins the build-tag plumbing: this file only compiles
// under satcheck, where the audits must be live.
func TestSatCheckEnabled(t *testing.T) {
	if !satCheckEnabled {
		t.Fatal("satcheck test build reports satCheckEnabled == false")
	}
}

// TestSolveAssumingScopeAuditFires breaks the scope contract — the clause
// (a OR b) with a and b both outside the scope, so a scoped Sat verdict
// leaves it false once unassigned variables read false — and expects the
// checked build's audit to panic.
func TestSolveAssumingScopeAuditFires(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	if !s.AddClause(Lit(a), Lit(b)) {
		t.Fatal("AddClause failed")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "scope contract") || !strings.Contains(msg, "is false") {
			t.Fatalf("scoped solve panicked with %q, want a scope-contract violation", msg)
		}
	}()
	s.SolveAssuming(nil, []int{c})
	t.Fatal("a scoped Sat verdict that leaves (a OR b) false passed the audit")
}

package sat

import (
	"slices"
	"testing"
)

// TestAddClauseNormalization pins AddClauseRef's normalization: false
// literals drop, duplicates collapse, a tautology or a clause with a true
// literal stores nothing, one surviving literal becomes a level-0 unit,
// and none surviving makes the solver unsatisfiable. Each case runs on a
// fresh solver over x1..x6 with x5 fixed true and x6 fixed false at level
// 0, and is followed by two clauses that a leaked normalization mark would
// mangle: one negating the case's literals (a leaked mark reads it as a
// tautology) and one repeating them (a leaked mark reads them as
// duplicates).
func TestAddClauseNormalization(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lits   []Lit
		stored []Lit // nil: no clause stored
		ok     bool
		unit   Lit // a literal the case fixes true at level 0
	}{
		{name: "distinct", lits: []Lit{1, 2, 3}, stored: []Lit{1, 2, 3}, ok: true},
		{name: "duplicates", lits: []Lit{1, 2, 1, 3, 2, 3}, stored: []Lit{1, 2, 3}, ok: true},
		{name: "tautology", lits: []Lit{1, 2, -1, 3}, ok: true},
		{name: "tautology-after-duplicate", lits: []Lit{1, 1, 2, -2}, ok: true},
		{name: "true-at-level-0", lits: []Lit{1, 2, 5, 3}, ok: true},
		{name: "false-at-level-0", lits: []Lit{1, 6, 2, -5, 3}, stored: []Lit{1, 2, 3}, ok: true},
		{name: "unit", lits: []Lit{6, 4, -5, 4}, ok: true, unit: 4},
		{name: "empty", lits: []Lit{6, -5, 6}, ok: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			for range 6 {
				s.NewVar()
			}
			s.AddClause(5)
			s.AddClause(-6)
			caller := slices.Clone(tc.lits)

			ref, ok := s.AddClauseRef(tc.lits...)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !slices.Equal(tc.lits, caller) {
				t.Fatalf("AddClauseRef rewrote the caller's slice: %v, was %v", tc.lits, caller)
			}
			switch {
			case tc.stored == nil && ref.Valid():
				t.Fatalf("stored %v, want nothing stored", ref.c.lits)
			case tc.stored != nil && (!ref.Valid() || !slices.Equal(ref.c.lits, tc.stored)):
				t.Fatalf("stored %v, want %v", ref.c, tc.stored)
			}
			if tc.unit != 0 && s.value(tc.unit) != lTrue {
				t.Fatalf("unit %d not fixed true", tc.unit)
			}
			if !tc.ok {
				return
			}

			neg, ok := s.AddClauseRef(-1, -2, -3, -4)
			wantNeg := []Lit{-1, -2, -3, -4}
			if tc.unit != 0 {
				wantNeg = []Lit{-1, -2, -3} // -4 is false now
			}
			if !ok || !neg.Valid() || !slices.Equal(neg.c.lits, wantNeg) {
				t.Fatalf("follow-up negation stored %v (ok %v), want %v", neg.c, ok, wantNeg)
			}
			pos, ok := s.AddClauseRef(1, 2, 3, 6)
			if !ok || !pos.Valid() || !slices.Equal(pos.c.lits, []Lit{1, 2, 3}) {
				t.Fatalf("follow-up repeat stored %v (ok %v), want [1 2 3]", pos.c, ok)
			}
			for v, m := range s.clauseMark {
				if m != 0 {
					t.Fatalf("normalization mark %d left on variable %d", m, v)
				}
			}
		})
	}
}

// TestAddClauseAllocs bounds what storing a 100-literal clause allocates:
// the stored clause and its literal slice, plus amortized growth of the
// clause list and watch lists — no per-literal bookkeeping.
func TestAddClauseAllocs(t *testing.T) {
	s := New()
	lits := make([]Lit, 100)
	for i := range lits {
		lits[i] = Lit(s.NewVar())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if ref, ok := s.AddClauseRef(lits...); !ok || !ref.Valid() {
			t.Fatal("100-literal clause not stored")
		}
	})
	if allocs > 3 {
		t.Fatalf("AddClauseRef of a 100-literal clause allocates %.1f times, want <= 3", allocs)
	}
}

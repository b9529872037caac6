package sat

import "testing"

// TestSolveAssumingIncremental exercises the incremental contract: one
// solver answers a stream of assumption-scoped queries, flipping between
// Sat and Unsat without ever being rebuilt.
func TestSolveAssumingIncremental(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	// a -> b, b -> c, and (a | c) as a base formula.
	s.AddClause(Lit(a).Neg(), Lit(b))
	s.AddClause(Lit(b).Neg(), Lit(c))
	s.AddClause(Lit(a), Lit(c))

	if st := s.SolveAssuming([]Lit{Lit(a)}, nil); st != Sat {
		t.Fatalf("assuming a: %v, want SAT", st)
	}
	if !s.ValueOf(b) || !s.ValueOf(c) {
		t.Fatal("assuming a must propagate b and c")
	}
	if st := s.SolveAssuming([]Lit{Lit(a), Lit(c).Neg()}, nil); st != Unsat {
		t.Fatalf("assuming a, !c: %v, want UNSAT", st)
	}
	// The solver must remain usable after an assumption-scoped UNSAT.
	if st := s.SolveAssuming([]Lit{Lit(a).Neg()}, nil); st != Sat {
		t.Fatalf("assuming !a after UNSAT round: %v, want SAT", st)
	}
	if !s.ValueOf(c) {
		t.Fatal("assuming !a must still satisfy (a | c) via c")
	}
	if st := s.SolveAssuming(nil, nil); st != Sat {
		t.Fatalf("no assumptions: %v, want SAT", st)
	}
}

// TestRetireGuardDropsConstraint: retiring a guard removes its PB
// constraint from the propagation structures and fixes the guard false,
// while unguarded constraints stay attached.
func TestRetireGuardDropsConstraint(t *testing.T) {
	s := New()
	x, y, g := s.NewVar(), s.NewVar(), s.NewVar()
	// Permanent: x + y <= 1.
	if !s.AddPB([]PBTerm{{Lit(x), 1}, {Lit(y), 1}}, 1) {
		t.Fatal("AddPB permanent")
	}
	// Guarded bound: 2x + 2y + 3g <= 4 — assuming g forces x + y = 0.
	if !s.AddPB([]PBTerm{{Lit(x), 2}, {Lit(y), 2}, {Lit(g), 3}}, 4) {
		t.Fatal("AddPB guarded")
	}
	if got := s.ActivePBs(); got != 2 {
		t.Fatalf("ActivePBs = %d, want 2", got)
	}
	if st := s.Solve(Lit(g), Lit(x)); st != Unsat {
		t.Fatalf("assuming g, x: %v, want UNSAT (guarded bound active)", st)
	}
	if !s.RetireGuard(Lit(g)) {
		t.Fatal("RetireGuard failed")
	}
	if got := s.ActivePBs(); got != 1 {
		t.Fatalf("ActivePBs after retire = %d, want 1", got)
	}
	if got := s.PBOccupancy(); got != 2 {
		t.Fatalf("PBOccupancy after retire = %d, want 2 (x and y of the permanent constraint)", got)
	}
	// The formerly guarded bound must no longer constrain anything...
	if st := s.Solve(Lit(x)); st != Sat {
		t.Fatalf("assuming x after retire: %v, want SAT", st)
	}
	if s.ValueOf(g) {
		t.Fatal("retired guard must be fixed false")
	}
	// ...while the permanent constraint still does.
	if st := s.Solve(Lit(x), Lit(y)); st != Unsat {
		t.Fatalf("assuming x, y: %v, want UNSAT (permanent constraint)", st)
	}
}

// TestRetireGuardRecyclesSlots is the memory regression for the latent
// inefficiency this PR fixes: a loop that adds and retires one guarded
// bound per round — the branch-and-bound pattern — must run in constant PB
// memory instead of growing pbs/pbOcc forever.
func TestRetireGuardRecyclesSlots(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	s.AddClause(Lit(x), Lit(y))
	baseSlots, baseOcc := s.PBSlots(), s.PBOccupancy()
	for round := 0; round < 100; round++ {
		g := s.NewVar()
		if !s.AddPB([]PBTerm{{Lit(x), 1}, {Lit(y), 1}, {Lit(g), 2}}, 3) {
			t.Fatalf("round %d: AddPB failed", round)
		}
		if st := s.Solve(Lit(g)); st != Sat {
			t.Fatalf("round %d: %v, want SAT", round, st)
		}
		if !s.RetireGuard(Lit(g)) {
			t.Fatalf("round %d: RetireGuard failed", round)
		}
	}
	if got := s.PBSlots(); got > baseSlots+1 {
		t.Errorf("PBSlots grew to %d (base %d): retired slots are not recycled", got, baseSlots)
	}
	if got := s.PBOccupancy(); got != baseOcc {
		t.Errorf("PBOccupancy = %d after retirement, want %d", got, baseOcc)
	}
	if got := s.ActivePBs(); got != 0 {
		t.Errorf("ActivePBs = %d after retirement, want 0", got)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("solver unusable after 100 retire rounds: %v", st)
	}
}

// TestRetireGuardKeepsNonVacuousConstraints: retirement must only drop
// constraints the falsified guard makes vacuous. A constraint mentioning
// the guard's negation becomes strictly tighter when the guard is fixed
// false, and one whose other weights still exceed k keeps constraining —
// both must stay enforced.
func TestRetireGuardKeepsNonVacuousConstraints(t *testing.T) {
	s := New()
	x, y, g := s.NewVar(), s.NewVar(), s.NewVar()
	// !g + x <= 1: once g is false, x is forced false.
	if !s.AddPB([]PBTerm{{Lit(g).Neg(), 1}, {Lit(x), 1}}, 1) {
		t.Fatal("AddPB neg-guard")
	}
	// g + 5y <= 4: forces y false regardless of g — not vacuous under !g.
	if !s.AddPB([]PBTerm{{Lit(g), 1}, {Lit(y), 5}}, 4) {
		t.Fatal("AddPB heavy")
	}
	if got := s.ActivePBs(); got != 2 {
		t.Fatalf("ActivePBs = %d, want 2", got)
	}
	if !s.RetireGuard(Lit(g)) {
		t.Fatal("RetireGuard failed")
	}
	if got := s.ActivePBs(); got != 2 {
		t.Fatalf("ActivePBs = %d after retire, want 2 (neither constraint is vacuous)", got)
	}
	if st := s.Solve(Lit(x)); st != Unsat {
		t.Fatalf("assuming x: %v, want UNSAT (!g + x <= 1 with g false)", st)
	}
	if st := s.Solve(Lit(y)); st != Unsat {
		t.Fatalf("assuming y: %v, want UNSAT (5y alone exceeds 4)", st)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("base formula: %v, want SAT", st)
	}
}

// TestAddPBDeterministicOrder: constraint-internal literal order must
// follow first appearance in terms, not map iteration, so repeated
// constructions propagate identically.
func TestAddPBDeterministicOrder(t *testing.T) {
	// A constraint where exactly one literal must be forced first: if the
	// internal order were map-randomized, the trail order of the forced
	// literals would vary run to run. We assert the observable trail-free
	// property instead: same formula, same decisions, same model, twice.
	build := func() *Solver {
		s := New()
		var lits []Lit
		for i := 0; i < 8; i++ {
			lits = append(lits, Lit(s.NewVar()))
		}
		terms := make([]PBTerm, len(lits))
		for i, l := range lits {
			terms[i] = PBTerm{l, int64(i + 1)}
		}
		s.AddPB(terms, 10)
		s.AddClause(lits...)
		return s
	}
	s1, s2 := build(), build()
	if st1, st2 := s1.Solve(), s2.Solve(); st1 != st2 {
		t.Fatalf("statuses differ: %v vs %v", st1, st2)
	}
	for v := 1; v <= s1.NumVars(); v++ {
		if s1.ValueOf(v) != s2.ValueOf(v) {
			t.Fatalf("var %d: models differ between identical builds", v)
		}
	}
	if s1.Decisions != s2.Decisions || s1.Conflicts != s2.Conflicts {
		t.Fatalf("search differs: decisions %d/%d conflicts %d/%d",
			s1.Decisions, s2.Decisions, s1.Conflicts, s2.Conflicts)
	}
}

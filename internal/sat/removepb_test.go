package sat

import "testing"

// TestRemovePBClearsLevelZeroReasons: a PB row that forced a literal at
// the top level is removed. The literal stays assigned, but its reason
// must no longer name the row's slot, which the next AddPB recycles;
// removePB clears it by walking the row's own literals, the only ones the
// row can force.
func TestRemovePBClearsLevelZeroReasons(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if !s.AddClause(Lit(a)) {
		t.Fatal("unit clause made the solver unsat")
	}
	// a + b <= 1 with a true at the top level forces b false.
	ref, ok := s.AddPBRef([]PBTerm{{Lit(a), 1}, {Lit(b), 1}}, 1)
	if !ok {
		t.Fatal("AddPBRef made the solver unsat")
	}
	if !s.FixedFalse(Lit(b)) || s.reasons[b].pb != ref.slot {
		t.Fatalf("b fixed false %v with reason slot %d, want fixed false by slot %d", s.FixedFalse(Lit(b)), s.reasons[b].pb, ref.slot)
	}
	s.RemovePB(ref)
	if !s.FixedFalse(Lit(b)) {
		t.Fatal("removing the row unassigned b")
	}
	if r := s.reasons[b]; r.pb != 0 {
		t.Fatalf("b's reason still names retired PB slot %d", r.pb-1)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("audit after RemovePB: %v", err)
	}
}

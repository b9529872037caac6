package sat

import (
	"testing"
	"time"
)

// encodePHP adds the pigeonhole principle PHP(pigeons, pigeons-1) to s:
// every pigeon sits in some hole, no two pigeons share a hole. It is
// unsatisfiable and exponentially hard for clause-learning solvers, which
// makes it a deterministic "long-running search" for interrupt tests.
func encodePHP(s *Solver, pigeons int) {
	holes := pigeons - 1
	v := make([][]int, pigeons)
	for i := range v {
		v[i] = make([]int, holes)
		for h := range v[i] {
			v[i][h] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = Lit(v[i][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < pigeons; i++ {
			for j := i + 1; j < pigeons; j++ {
				s.AddClause(Lit(v[i][h]).Neg(), Lit(v[j][h]).Neg())
			}
		}
	}
}

func phpSolver(pigeons int) *Solver {
	s := New()
	encodePHP(s, pigeons)
	return s
}

func TestInterruptMidSolve(t *testing.T) {
	s := phpSolver(11)
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()

	// Let the search get going, then stop it and measure how long the
	// solver takes to notice.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	s.Interrupt()
	select {
	case st := <-done:
		if st != Canceled {
			t.Fatalf("Solve = %v, want Canceled (did the instance finish before the interrupt?)", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Solve did not return after Interrupt")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Solve took %v to honor Interrupt, want prompt return", d)
	}

	// The solver must remain consistent and reusable: after re-arming,
	// a budgeted solve on the same hard instance runs and reports budget
	// exhaustion (Unknown), not cancellation.
	s.ClearInterrupt()
	s.MaxConflicts = s.Conflicts + 50
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budgeted re-solve = %v, want Unknown", st)
	}
}

func TestInterruptIsSticky(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Lit(a))
	s.Interrupt()
	if st := s.Solve(); st != Canceled {
		t.Fatalf("Solve with pending interrupt = %v, want Canceled", st)
	}
	if st := s.Solve(); st != Canceled {
		t.Fatalf("second Solve without ClearInterrupt = %v, want Canceled", st)
	}
	if !s.Interrupted() {
		t.Fatal("Interrupted() = false after Interrupt")
	}
	s.ClearInterrupt()
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve after ClearInterrupt = %v, want Sat", st)
	}
	if !s.ValueOf(a) {
		t.Fatal("model lost after interrupt cycle")
	}
}

func TestBudgetStillReportsUnknown(t *testing.T) {
	// Budget exhaustion and cancellation must stay distinguishable.
	s := phpSolver(9)
	s.MaxConflicts = 30
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budgeted Solve = %v, want Unknown", st)
	}
	if s.Interrupted() {
		t.Fatal("budget exhaustion must not set the interrupt flag")
	}
}

func TestNegativeFirstPolarity(t *testing.T) {
	// With no constraints, the first decision on a fresh variable assigns
	// it false.
	s := New()
	v := s.NewVar()
	if st := s.Solve(); st != Sat || s.ValueOf(v) {
		t.Fatalf("negative-first: status %v, value %v", st, s.ValueOf(v))
	}
}

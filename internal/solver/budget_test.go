package solver

import (
	"testing"

	"dart/internal/symbolic"
)

func TestSolveWorkDefaultBudgetSat(t *testing.T) {
	pc := []symbolic.Pred{pred(symbolic.EQ, -10, 0, 1)}
	sol, v := SolveWork(pc, intMeta, symbolic.Vector{}, 0)
	if v != Sat {
		t.Fatalf("verdict = %v, want Sat", v)
	}
	if sol[0] != 10 {
		t.Errorf("x = %d, want 10", sol[0])
	}
}

func TestSolveWorkTinyBudgetExhausts(t *testing.T) {
	// A chain of inequalities forces Fourier–Motzkin elimination work;
	// one unit of budget cannot pay for it.
	pc := []symbolic.Pred{
		pred(symbolic.LE, 0, 0, 1, 1, -1), // x - y <= 0
		pred(symbolic.LE, 0, 1, 1, 2, -1), // y - z <= 0
		pred(symbolic.LE, -5, 2, 1),       // z <= 5
		pred(symbolic.GE, 5, 0, 1),        // x >= -5
	}
	_, v := SolveWork(pc, intMeta, symbolic.Vector{}, 1)
	if v != BudgetExhausted {
		t.Fatalf("verdict = %v, want BudgetExhausted for a 1-unit budget", v)
	}

	// The same system solves under the default budget.
	sol, v := SolveWork(pc, intMeta, symbolic.Vector{}, DefaultWork)
	if v != Sat {
		t.Fatalf("verdict = %v, want Sat under the default budget", v)
	}
	for _, p := range pc {
		if !p.Holds(sol) {
			t.Errorf("solution %v violates %v", sol, p)
		}
	}
}

func TestSolveWorkUnsatStaysUnsat(t *testing.T) {
	// x == y ∧ y == x + 10: genuinely unsatisfiable, and the verdict must
	// say so rather than blaming the budget.
	pc := []symbolic.Pred{
		pred(symbolic.EQ, 0, 0, 1, 1, -1),
		pred(symbolic.EQ, 10, 0, 1, 1, -1),
	}
	if _, v := SolveWork(pc, intMeta, symbolic.Vector{}, DefaultWork); v != Unsat {
		t.Fatalf("verdict = %v, want Unsat", v)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{Sat: "sat", Unsat: "unsat", BudgetExhausted: "budget-exhausted"}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

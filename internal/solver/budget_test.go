package solver

import (
	"math"
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

// fullRange gives every variable the whole int64 domain, where a pivot's
// domain rows Lo − expr and expr − Hi are one constant away from
// wrapping.
func fullRange(symbolic.Var) VarMeta {
	return VarMeta{Kind: symbolic.ScalarVar, Lo: math.MinInt64, Hi: math.MaxInt64}
}

func TestShiftConstFullRangeSat(t *testing.T) {
	for _, k := range []int64{5, 1 << 62, math.MaxInt64 - 1, math.MaxInt64, math.MinInt64 + 1} {
		pc := []symbolic.Pred{pred(symbolic.EQ, -k, 0, 1)} // x − k == 0
		sol, v := SolveWork(pc, fullRange, symbolic.Vector{}, DefaultWork)
		if v != Sat {
			t.Errorf("k = %d: verdict = %v, want Sat", k, v)
			continue
		}
		if sol[0] != k {
			t.Errorf("k = %d: x = %d, want %d", k, sol[0], k)
		}
	}
}

func TestShiftConstFullRangeUnsat(t *testing.T) {
	// x == 5 ∧ x == 6 over the whole int64 range: genuinely infeasible,
	// and the domain rows that overflow on the way must not hide it.
	pc := []symbolic.Pred{pred(symbolic.EQ, -5, 0, 1), pred(symbolic.EQ, -6, 0, 1)}
	if _, v := SolveWork(pc, fullRange, symbolic.Vector{}, DefaultWork); v != Unsat {
		t.Errorf("x == 5 ∧ x == 6: verdict = %v, want Unsat", v)
	}
	// An empty domain whose upper domain row overflows upward: the
	// constant row 5 − Hi ≤ 0 is decided exactly as false.
	empty := func(symbolic.Var) VarMeta {
		return VarMeta{Kind: symbolic.ScalarVar, Lo: -10, Hi: math.MinInt64 + 10}
	}
	if _, v := SolveWork([]symbolic.Pred{pred(symbolic.EQ, -5, 0, 1)}, empty, symbolic.Vector{}, DefaultWork); v != Unsat {
		t.Errorf("x == 5 over an empty domain: verdict = %v, want Unsat", v)
	}
}

func TestShiftConstOverflowUndecided(t *testing.T) {
	// x + y == MaxInt64 is feasible, but substituting x = MaxInt64 − y
	// makes the domain row Lo − expr = y + MinInt64 − MaxInt64 overflow
	// with y still free.  The solver may find a model or give up, but it
	// must never call the system infeasible.
	pc := []symbolic.Pred{pred(symbolic.EQ, -math.MaxInt64, 0, 1, 1, 1)}
	sol, v := SolveWork(pc, fullRange, symbolic.Vector{}, DefaultWork)
	switch v {
	case Sat:
		if !holdsChecked(pc[0], sol) {
			t.Errorf("model %v violates %v", sol, pc[0])
		}
	case BudgetExhausted:
	default:
		t.Errorf("verdict = %v, want Sat or BudgetExhausted", v)
	}
}

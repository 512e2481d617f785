package solver

import (
	"testing"

	"dart/internal/symbolic"
)

// The solver oracle: fuzz bytes decode to a small integer system whose
// truth can be decided by brute force, and every verdict is checked
// against it.  Theorem 1(b) — a search that ends "complete" explored
// every feasible path — rests on the solver never answering Unsat for a
// satisfiable constraint, and Theorem 1(a) on every Sat model being
// genuine.

// oracleBox bounds every variable: small enough to enumerate, wide
// enough that coefficients up to 4 make divisibility and gcd cases.
const oracleBox = 6

// oracleSystem is one decoded fuzz input.
type oracleSystem struct {
	nVars int
	pc    []symbolic.Pred
	hint  symbolic.Vector
}

// decodeOracle reads: the variable count (1–3), the predicate count
// (1–6), a hint byte per variable (odd bytes leave the variable
// unhinted), then per predicate a relation byte, a constant byte and one
// coefficient byte per variable.  Short input reads as zero bytes.
func decodeOracle(data []byte) oracleSystem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	sys := oracleSystem{nVars: 1 + int(next()%3)}
	nPreds := 1 + int(next()%6)
	for v := 0; v < sys.nVars; v++ {
		if b := next(); b%2 == 0 {
			sys.hint.Set(symbolic.Var(v), int64(b/2%(2*oracleBox+1))-oracleBox)
		}
	}
	for i := 0; i < nPreds; i++ {
		rel := symbolic.Rel(next() % 6)
		k := int64(int8(next())) % 25
		terms := make([]symbolic.Term, sys.nVars)
		for v := range terms {
			terms[v] = symbolic.Term{V: symbolic.Var(v), K: int64(next()%9) - 4}
		}
		sys.pc = append(sys.pc, symbolic.Pred{L: symbolic.NewLin(k, terms...), Rel: rel})
	}
	return sys
}

func oracleMeta(symbolic.Var) VarMeta {
	return VarMeta{Kind: symbolic.ScalarVar, Lo: -oracleBox, Hi: oracleBox}
}

// witness returns an assignment in the box satisfying every predicate,
// found by enumeration.
func (sys oracleSystem) witness() (map[symbolic.Var]int64, bool) {
	assign := map[symbolic.Var]int64{}
	var try func(v int) bool
	try = func(v int) bool {
		if v == sys.nVars {
			for _, p := range sys.pc {
				if !p.Holds(assign) {
					return false
				}
			}
			return true
		}
		for x := int64(-oracleBox); x <= oracleBox; x++ {
			assign[symbolic.Var(v)] = x
			if try(v + 1) {
				return true
			}
		}
		return false
	}
	return assign, try(0)
}

// FuzzSolverOracle checks every verdict against brute force.  Its seeds
// live in testdata/fuzz/FuzzSolverOracle; plain `go test` replays them.
func FuzzSolverOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sys := decodeOracle(data)
		sol, verdict := SolveWork(sys.pc, oracleMeta, sys.hint, 0)
		switch verdict {
		case Sat:
			for v, x := range sol {
				if x < -oracleBox || x > oracleBox {
					t.Fatalf("model %v leaves the box at x%d for %v", sol, v, symbolic.PathConstraint(sys.pc))
				}
			}
			for _, p := range sys.pc {
				if !p.Holds(sol) {
					t.Fatalf("model %v violates %v", sol, p)
				}
			}
		case Unsat:
			if w, ok := sys.witness(); ok {
				t.Fatalf("Unsat for %v, but %v satisfies it", symbolic.PathConstraint(sys.pc), w)
			}
		case BudgetExhausted:
			// Undecided is an honest answer.
		}
	})
}

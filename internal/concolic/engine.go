package concolic

import (
	"fmt"
	"math"
	"strings"

	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/solver"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// oneRun executes the generated test driver once: extern globals are
// initialized as inputs, then the toplevel function is called Depth times
// with fresh inputs per call (Fig. 7).  The returned machine carries the
// branch records and completeness flags of the run.  A non-nil error is
// an engine-internal failure (the machine could not even be built), not
// a program error; runIsolated converts it into an InternalError
// diagnostic.
func (e *engine) oneRun() (*machine.Machine, *machine.RunError, error) {
	e.k = 0
	e.mispredict = false
	var in machine.InputSource = e
	if e.random != nil {
		in = e.random
	}

	// The machine is pooled: built once per engine, Reset between runs
	// so the search's N runs reuse one allocation footprint (memory
	// arrays, branch records, scratch stacks).
	m := e.mach
	if m == nil {
		cfg := machine.Config{
			Prog:     e.prog,
			Inputs:   in,
			LibImpls: e.opts.LibImpls,
			MaxSteps: e.opts.MaxSteps,
			Deadline: e.deadline,
			Cancel:   e.opts.Cancel,
			Observer: e.machineSink(),
			Code:     e.code,
		}
		if e.random == nil {
			// Only the directed search follows conditionals (Fig. 4) and
			// searches pointer input shapes.
			cfg.OnBranch = e.onBranch
			cfg.ShapeSearch = !e.opts.DisableShapeSearch
		}
		var err error
		if m, err = machine.New(cfg); err != nil {
			return nil, nil, fmt.Errorf("machine construction: %w", err)
		}
		e.mach = m
	} else if err := m.Reset(in); err != nil {
		return nil, nil, fmt.Errorf("machine reset: %w", err)
	}

	for d := 0; d < e.opts.Depth; d++ {
		if err := m.InitArgs(e.fn, d, e.argbuf); err != nil {
			return m, &machine.RunError{Outcome: machine.Crashed, Msg: err.Error()}, nil
		}
		if _, rerr := m.RunCall(e.opts.Toplevel, e.argbuf); rerr != nil {
			return m, rerr, nil
		}
	}
	return m, nil, nil
}

// onBranch is compare_and_update_stack (Fig. 4).
func (e *engine) onBranch(rec machine.BranchRec) error {
	k := e.k
	e.k++
	if k < len(e.stack) {
		if e.stack[k].branch != rec.Taken {
			// The prediction was not fulfilled: clear forcing_ok
			// (mispredict) and raise, restarting with fresh random inputs.
			e.mispredict = true
			return errMispredicted
		}
		if k == len(e.stack)-1 {
			// Both branches of the flipped conditional have now executed
			// with this history.
			e.stack[k].done = true
		}
		return nil
	}
	// New conditional beyond the predicted prefix: append (branch, 0);
	// conditions outside the theory can never be flipped, so their
	// entries are born done.  Decision records that would *grow* a
	// recursive input beyond the shape-depth cap are also born done —
	// the infinite input tree of a recursive type is searched only to
	// bounded depth.
	done := !rec.HasPred
	if rec.Decision && !done && !rec.Taken && e.decisionDepth(rec) >= e.opts.MaxShapeDepth {
		done = true
	}
	e.stack = append(e.stack, stackEntry{branch: rec.Taken, done: done})
	return nil
}

// decisionDepth counts the pointer indirections of the input behind a
// Decision record.
func (e *engine) decisionDepth(rec machine.BranchRec) int {
	v, ok := rec.Pred.L.UnitVar()
	if !ok {
		return 0
	}
	return strings.Count(e.info(v).key, ".*")
}

// solveNext is solve_path_constraint (Fig. 5): choose an unexplored
// branch, negate its predicate, and solve the path-constraint prefix.
// It returns false when the directed search is over, or when the
// search must stop (Stopped is then set).
func (e *engine) solveNext(branches []machine.BranchRec) bool {
	ktry := e.k
	if ktry > len(e.stack) {
		ktry = len(e.stack)
	}
	if ktry > len(branches) {
		ktry = len(branches)
	}

	for {
		// Each iteration is a solve, and a deep path can hold thousands
		// of infeasible flips, so the deadline and cancellation are
		// polled here too.  A loop cut short marks nothing done: the
		// untried branches stay untried and the search stops.
		if reason, stop := e.tripped(); stop {
			e.report.Stopped = reason
			return false
		}
		j := e.pickBranch(branches, ktry)
		if j < 0 {
			return false
		}
		// Path constraint prefix: predicates of conditionals before j,
		// plus the negation of j's predicate.  Built in the engine's
		// scratch buffer — the solver does not retain the slice.
		pc := e.pcbuf[:0]
		for i := 0; i < j; i++ {
			if branches[i].HasPred {
				pc = append(pc, branches[i].Pred)
			}
		}
		pc = append(pc, branches[j].Pred.Negate())
		e.pcbuf = pc[:0]

		f := flipRef{ok: true, site: branches[j].Site, taken: !branches[j].Taken}
		if e.prof != nil || e.exp != nil {
			f.pos = branches[j].Pos.String()
		}
		var path string
		if e.obs != nil {
			path = flipPath(branches, j)
		}
		if e.tryFlip(pc, j, f, path) {
			// Truncate the stack to [0..j] and predict the flipped branch.
			e.stack = e.stack[:j+1]
			e.stack[j].branch = f.taken
			return true
		}
		// This branch cannot be flipped under its fixed prefix: mark it
		// done and keep looking, which is Fig. 5's recursive call with a
		// smaller ktry.
		e.stack[j].done = true
	}
}

// tryFlip is one flip attempt, shared by the classic stack and the
// frontier: solve pc — a path-constraint prefix ending in the negated
// predicate of the conditional at depth — for the direction f (path is
// its target bit string, rendered only under an observer).  On Sat the
// model is installed into IM (IM + IM': inputs not involved keep their
// previous values) and f is remembered for misprediction attribution.
// Any other verdict abandons the flip: infeasible, beyond the solver,
// or out of budget — a budget exhaustion additionally clears
// SolverComplete, since the branch may have been feasible, so the
// search degrades toward random testing instead of grinding on an
// adversarial constraint system.
func (e *engine) tryFlip(pc []symbolic.Pred, depth int, f flipRef, path string) bool {
	e.report.SolverCalls++
	e.metrics.Observe(obs.HPCLen, int64(len(pc)))
	e.metrics.Observe(obs.HFrontierDepth, int64(depth))
	// Events carry the 1-based site index (deterministic); the source
	// position string is computed only when a collector asks.
	if e.obs != nil {
		e.emit(obs.Event{Kind: obs.SolverCall, Run: e.report.Runs, Depth: depth, PCLen: len(pc), Path: path, Site: f.site + 1})
	}
	sol, verdict, work := e.solveIsolated(pc, depth)
	if e.obs != nil {
		ev := e.verdictEvent(depth, verdict, work)
		ev.Site = f.site + 1
		e.emit(ev)
	}
	e.prof.RecordSolve(f.site, f.pos, verdict.String(), work, e.lastSolve.solveNS, e.lastSolve.cache)
	if f.site >= 0 {
		// Ledger the attempt (and, on unsat, the infeasibility proof).
		e.exp.RecordSolve(f.site, f.pos, f.taken, verdict.String(), e.lastSolve.unsatSlice)
	}
	if verdict != solver.Sat {
		if verdict == solver.BudgetExhausted {
			e.report.SolverComplete = false
		}
		e.report.SolverFailures++
		return false
	}
	e.metrics.Add(obs.CBranchFlips, 1)
	e.prof.RecordFlip(f.site, f.pos)
	if e.obs != nil {
		e.emit(obs.Event{Kind: obs.BranchFlip, Run: e.report.Runs, Depth: depth, Path: path, Site: f.site + 1})
	}
	e.lastFlip = f
	for v, val := range sol {
		e.im.Set(v, val)
	}
	return true
}

// pickBranch selects the next not-done branch index below ktry according
// to the strategy.
func (e *engine) pickBranch(branches []machine.BranchRec, ktry int) int {
	candidates := e.candbuf[:0]
	for j := 0; j < ktry; j++ {
		if !e.stack[j].done && branches[j].HasPred {
			candidates = append(candidates, j)
		}
	}
	e.candbuf = candidates[:0]
	if len(candidates) == 0 {
		return -1
	}
	switch e.opts.Strategy {
	case BFS:
		return candidates[0]
	case RandomBranch:
		return candidates[e.rand.Intn(int64(len(candidates)))]
	default: // DFS: deepest first, the paper's exposition order
		return candidates[len(candidates)-1]
	}
}

// info returns a registered variable's key and domain from the engine's
// registry snapshot, refreshed only when v is newer than the snapshot
// (registry entries are immutable once appended), so the solver's
// per-variable reads take no lock.
func (e *engine) info(v symbolic.Var) *varInfo {
	if int(v) >= len(e.vars) {
		e.vars = e.regs.snapshot()
	}
	return &e.vars[v]
}

// meta returns the solver domain of a variable.
func (e *engine) meta(v symbolic.Var) solver.VarMeta {
	return e.info(v).meta
}

// varName names a variable by its stable input key for the explainer's
// unsat-slice renderings (Var numbering is first-use order and differs
// across worker counts; input keys do not).
func (e *engine) varName(v symbolic.Var) string {
	return e.info(v).key
}

// ---------------------------------------------------------------- inputs
// engine implements machine.InputSource: the generated test driver's
// random initialization, overridden by the solved input vector IM.

// ScalarInput returns IM[v] for the slot's variable v, drawing (and
// recording) random bits on first use, per Fig. 8's
// random_bits(sizeof(type)).
func (e *engine) ScalarInput(s *machine.Slot, b *types.Basic) int64 {
	v, _ := s.Var()
	if x, ok := e.im.Get(v); ok {
		return x
	}
	x := types.Truncate(b, e.rand.Bits(b.Bits()))
	e.im.Set(v, x)
	return x
}

// PointerInput returns the NULL-vs-allocate decision for a pointer input,
// tossing (and recording) a fair coin on first use.
func (e *engine) PointerInput(s *machine.Slot) bool {
	v, _ := s.Var()
	if x, ok := e.im.Get(v); ok {
		return x != 0
	}
	var d int64
	if e.rand.Coin() {
		d = 1
	}
	e.im.Set(v, d)
	return d != 0
}

// VarOf registers (or recalls) the symbolic variable for input key; the
// machine asks once per input slot.
// Registration goes through the search-global registry, so under the
// parallel engine the same key maps to the same variable in every
// worker (the property that keeps shared solve-cache keys sound).
func (e *engine) VarOf(key string, kind symbolic.VarKind, b *types.Basic) (symbolic.Var, bool) {
	return e.regs.varOf(key, kind, b), true
}

// domainOf maps a C type to the solver's variable domain.  Long inputs
// are restricted to ±2^40 so Fourier–Motzkin coefficient products stay
// within int64; the restriction is only visible as solver incompleteness
// on constraints needing >2^40 magnitudes.
func domainOf(kind symbolic.VarKind, b *types.Basic) solver.VarMeta {
	m := solver.VarMeta{Kind: kind}
	if kind == symbolic.PointerVar {
		return m
	}
	switch {
	case b == nil:
		m.Lo, m.Hi = math.MinInt32, math.MaxInt32
	case b.Kind == types.Char:
		m.Lo, m.Hi = math.MinInt8, math.MaxInt8
	case b.Kind == types.UInt:
		m.Lo, m.Hi = 0, math.MaxUint32
	case b.Kind == types.Long:
		m.Lo, m.Hi = -(1 << 40), 1<<40
	default:
		m.Lo, m.Hi = math.MinInt32, math.MaxInt32
	}
	return m
}

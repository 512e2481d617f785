package concolic

import (
	"time"

	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/rng"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// randomSource is a pure random input stream: the baseline DART is
// compared against.  It tracks no symbolic state, but it does record
// the drawn input vector: a bug found by random testing must be just as
// replayable as one found by the directed search (Theorem 1(a) is a
// property of the report, not of the engine that produced it).
type randomSource struct {
	rand *rng.R
	// im is the drawn input vector (key -> value/decision), keyed with
	// the same scheme the directed engine and Replay use.
	im map[string]int64
}

func (r *randomSource) ScalarInput(s *machine.Slot, b *types.Basic) int64 {
	if v, ok := r.im[s.Key]; ok {
		return v
	}
	v := types.Truncate(b, r.rand.Bits(b.Bits()))
	r.im[s.Key] = v
	return v
}

func (r *randomSource) PointerInput(s *machine.Slot) bool {
	if v, ok := r.im[s.Key]; ok {
		return v != 0
	}
	var d int64
	if r.rand.Coin() {
		d = 1
	}
	r.im[s.Key] = d
	return d != 0
}

func (r *randomSource) VarOf(string, symbolic.VarKind, *types.Basic) (symbolic.Var, bool) {
	return 0, false
}

// RandomTest performs pure random testing of the toplevel function: the
// same generated driver as the directed search, but every run draws fresh
// random inputs and no constraints are collected.  It is the "random
// search" column of the paper's tables.
func RandomTest(prog *ir.Prog, opts Options) (*Report, error) {
	start := time.Now()
	o := opts.withDefaults()
	if err := checkToplevel(prog, o.Toplevel); err != nil {
		return nil, err
	}
	o.Workers = 1
	e := newEngine(prog, o, 0, nil)
	// The baseline attempts no flips, so it keeps no per-site cost
	// profile or cause ledger; with the explainer on, its coverage
	// timeline still tracks progress and stalls.
	e.prof, e.exp = nil, nil
	for e.report.Runs < o.MaxRuns {
		if reason, stop := e.tripped(); stop {
			e.report.Stopped = reason
			break
		}
		e.random = &randomSource{rand: e.rand.Fork(), im: map[string]int64{}}
		if _, _, cont := e.execute(); !cont {
			break
		}
	}
	return e.finish(start), nil
}

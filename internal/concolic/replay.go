package concolic

import (
	"fmt"
	"time"

	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// replaySource replays a recorded input vector.  Inputs absent from the
// vector (which can only happen if the program is nondeterministic,
// which MiniC programs are not) read as zero and are flagged.
type replaySource struct {
	im      map[string]int64
	missing []string
}

func (r *replaySource) ScalarInput(s *machine.Slot, b *types.Basic) int64 {
	if v, ok := r.im[s.Key]; ok {
		return v
	}
	r.missing = append(r.missing, s.Key)
	return 0
}

func (r *replaySource) PointerInput(s *machine.Slot) bool {
	if v, ok := r.im[s.Key]; ok {
		return v != 0
	}
	r.missing = append(r.missing, s.Key)
	return false
}

func (r *replaySource) VarOf(string, symbolic.VarKind, *types.Basic) (symbolic.Var, bool) {
	return 0, false // concrete-only replay
}

// Replay executes the program once, concretely, on a recorded input
// vector (a Bug's Inputs).  It returns how the run ended: nil for normal
// termination, or the RunError that reproduces the bug.  Replay is the
// executable form of the paper's Theorem 1(a): every error DART reports
// comes with an input vector whose plain concrete execution exhibits it.
func Replay(prog *ir.Prog, opts Options, inputs map[string]int64) (*machine.RunError, error) {
	o := opts.withDefaults()
	fn, ok := prog.Lookup(o.Toplevel)
	if !ok {
		return nil, fmt.Errorf("concolic: toplevel function %q is not defined in the program", o.Toplevel)
	}
	var deadline time.Time
	if o.Timeout > 0 {
		deadline = time.Now().Add(o.Timeout)
	}
	src := &replaySource{im: inputs}
	m, err := machine.New(machine.Config{
		Prog:     prog,
		Inputs:   src,
		LibImpls: o.LibImpls,
		MaxSteps: o.MaxSteps,
		Deadline: deadline,
		Cancel:   o.Cancel,
	})
	if err != nil {
		return nil, err
	}
	for d := 0; d < o.Depth; d++ {
		args := make([]machine.Value, len(fn.Params))
		if err := m.InitArgs(fn, d, args); err != nil {
			return nil, err
		}
		_, rerr := m.RunCall(o.Toplevel, args)
		if len(src.missing) > 0 {
			return nil, fmt.Errorf("concolic: replay vector is missing inputs %v", src.missing)
		}
		if rerr != nil {
			if rerr.Outcome == machine.HaltOK {
				return nil, nil
			}
			return rerr, nil
		}
	}
	return nil, nil
}

// Suite replay: the warm path of the incremental re-audit pipeline.
//
// A distilled suite is a handful of recorded input vectors; replaying
// it is pure concrete execution — no symbolic shadow, no solver — on
// the compiled engine with one pooled machine, so an unchanged function
// re-validates in milliseconds.  The replay reports everything the
// corpus needs to validate its entry against the current program:
// each case's covered branch directions and termination.
package concolic

import (
	"fmt"
	"time"

	"dart/internal/ir"
	"dart/internal/machine"
)

// CaseResult describes one replayed suite case.
type CaseResult struct {
	// Cover is every branch direction the case executed (deduped, in
	// first-execution order).
	Cover []CovDir
	// Err is the run's abnormal termination (nil for a clean halt);
	// Interrupted means the suite's deadline or cancel tripped.
	Err *machine.RunError
	// Missing lists input keys the vector did not contain (the program
	// drew fresh inputs the recording never saw — a stale vector).
	Missing []string
}

// ReplaySuite executes each recorded input vector concretely on one
// pooled compiled machine and reports per-case coverage and outcome.
// Options supplies the toplevel, depth, step budget, library bindings,
// timeout, and engine selection exactly as for a search; solver- and
// strategy-related options are ignored.  A machine-construction
// failure, or an internal panic while replaying, returns an error — the
// corpus treats any error as "entry invalid, fall back to full search".
func ReplaySuite(prog *ir.Prog, opts Options, cases []map[string]int64) (results []CaseResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("concolic: suite replay panic: %v", r)
		}
	}()
	o := opts.withDefaults()
	fn, ok := prog.Lookup(o.Toplevel)
	if !ok {
		return nil, fmt.Errorf("concolic: toplevel function %q is not defined in the program", o.Toplevel)
	}
	var deadline time.Time
	if o.Timeout > 0 {
		deadline = time.Now().Add(o.Timeout)
	}
	code := compileFor(prog, o)
	results = make([]CaseResult, 0, len(cases))
	var pooled *machine.Machine
	argbuf := make([]machine.Value, len(fn.Params))
	dirbuf := map[CovDir]bool{}
	for _, inputs := range cases {
		src := &replaySource{im: inputs}
		if pooled == nil {
			pooled, err = machine.New(machine.Config{
				Prog:     prog,
				Inputs:   src,
				LibImpls: o.LibImpls,
				MaxSteps: o.MaxSteps,
				Deadline: deadline,
				Cancel:   o.Cancel,
				Code:     code,
			})
			if err != nil {
				return nil, err
			}
		} else if rerr := pooled.Reset(src); rerr != nil {
			return nil, rerr
		}
		res := CaseResult{}
		for d := 0; d < o.Depth && res.Err == nil; d++ {
			if err := pooled.InitArgs(fn, d, argbuf); err != nil {
				return nil, err
			}
			if _, rerr := pooled.RunCall(o.Toplevel, argbuf); rerr != nil {
				res.Err = rerr
			}
		}
		clear(dirbuf)
		for _, rec := range pooled.Branches {
			if rec.Site < 0 {
				continue
			}
			d := CovDir{Site: rec.Site, Taken: rec.Taken}
			if dirbuf[d] {
				continue
			}
			dirbuf[d] = true
			res.Cover = append(res.Cover, d)
		}
		res.Missing = src.missing
		results = append(results, res)
	}
	return results, nil
}

package concolic

import (
	"fmt"
	"time"

	"dart/internal/coverage"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/obs"
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
	fn, ok := prog.Lookup(o.Toplevel)
	if !ok {
		return nil, fmt.Errorf("concolic: toplevel function %q is not defined in the program", o.Toplevel)
	}
	rand := rng.New(o.Seed)
	report := &Report{
		AllLinear:       true,
		AllLocsDefinite: true,
		SolverComplete:  true,
		Workers:         1,
		Coverage:        coverage.New(prog.NumSites),
	}
	metrics := newMetrics(o)
	var rec *runRecorder
	if o.RecordRuns {
		rec = newRunRecorder(prog.NumSites)
	}
	// The random baseline attempts no flips, so its explainer output is
	// the timeline (coverage progress and stalls are just as meaningful
	// for random testing) over an empty cause ledger: reached-but-dark
	// directions honestly resolve to "not-attempted".
	tl := newTimeline(o)
	// emit forwards trace events behind the same observer isolation the
	// directed engine uses: a panicking sink becomes an InternalError
	// and observation is disabled for the rest of the campaign.
	sink := o.Observer
	emit := func(ev obs.Event) {
		if sink == nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				sink = nil
				report.InternalErrors = append(report.InternalErrors, InternalError{
					Phase: "observer",
					Msg:   fmt.Sprintf("panic: %v", r),
					Run:   report.Runs,
				})
			}
		}()
		ev.Fn = o.Toplevel
		sink.Event(ev)
	}
	defer func() {
		if tl != nil {
			snap := &obs.ExplainSnapshot{Workers: 1}
			tl.Stamp(snap)
			report.Explain = snap
			rep := ResolveExplain(prog, snap, report.Coverage)
			for _, reason := range obs.ReasonPrecedence {
				if n := rep.Buckets[reason]; n > 0 {
					metrics.Add(obs.UncoveredPrefix+reason, int64(n))
					emit(obs.Event{Kind: obs.UncoveredReason, Run: report.Runs, Reason: reason, Count: n})
				}
			}
		}
		report.RunLog = rec.log()
		report.Elapsed = time.Since(start)
		report.Metrics = metrics.Snapshot()
	}()
	seenBugs := map[string]bool{}
	var deadline time.Time
	if o.Timeout > 0 {
		deadline = time.Now().Add(o.Timeout)
	}

	// lastInputs is the input vector of the most recent run, for bug
	// reports and fault diagnostics (both must be replayable).
	var lastInputs map[string]int64

	// The machine is pooled across the campaign: built on the first run,
	// Reset with a fresh random source for each subsequent one.  The
	// observer closure reads report.Runs at event time, so one sink
	// serves every run.
	var pooled *machine.Machine
	var msink obs.Sink
	if sink != nil {
		msink = obs.SinkFunc(func(ev obs.Event) {
			ev.Run = report.Runs
			emit(ev)
		})
	}
	code := compileFor(prog, o)

	// oneRandomRun executes one run behind a recover barrier so that a
	// faulty library black box cannot take down the whole campaign.
	oneRandomRun := func() (m *machine.Machine, rerr *machine.RunError, fault *InternalError) {
		src := &randomSource{rand: rand.Fork(), im: map[string]int64{}}
		lastInputs = src.im
		defer func() {
			if r := recover(); r != nil {
				fault = &InternalError{
					Phase:  "run",
					Msg:    fmt.Sprintf("panic: %v", r),
					Run:    report.Runs,
					Inputs: copyIM(src.im),
				}
				m, rerr = nil, nil
			}
		}()
		if pooled == nil {
			var err error
			pooled, err = machine.New(machine.Config{
				Prog:     prog,
				Inputs:   src,
				LibImpls: o.LibImpls,
				MaxSteps: o.MaxSteps,
				Deadline: deadline,
				Cancel:   o.Cancel,
				Observer: msink,
				Code:     code,
			})
			if err != nil {
				pooled = nil
				return nil, nil, &InternalError{Phase: "init", Msg: err.Error(), Run: report.Runs}
			}
		} else if err := pooled.Reset(src); err != nil {
			return nil, nil, &InternalError{Phase: "init", Msg: err.Error(), Run: report.Runs}
		}
		m = pooled
		for d := 0; d < o.Depth; d++ {
			args := make([]machine.Value, len(fn.Params))
			if err := m.InitArgs(fn, d, args); err != nil {
				return m, &machine.RunError{Outcome: machine.Crashed, Msg: err.Error()}, nil
			}
			if _, rerr := m.RunCall(o.Toplevel, args); rerr != nil {
				return m, rerr, nil
			}
		}
		return m, nil, nil
	}

	for report.Runs < o.MaxRuns {
		if reason, stop := tripped(deadline, o.Cancel); stop {
			report.Stopped = reason
			return report, nil
		}
		report.Runs++
		emit(obs.Event{Kind: obs.RunStart, Run: report.Runs})
		m, rerr, fault := oneRandomRun()
		if fault != nil {
			report.InternalErrors = append(report.InternalErrors, *fault)
			if fault.Phase == "init" || len(report.InternalErrors) >= maxInternalFaults {
				report.Stopped = StopInternal
				return report, nil
			}
			continue // fresh randoms next run
		}

		report.Steps += m.Steps()
		metrics.Add(obs.CRuns, 1)
		metrics.Observe(obs.HStepsPerRun, m.Steps())
		newly := 0
		for _, br := range m.Branches {
			if report.Coverage.Record(br.Site, br.Taken) {
				newly++
			}
		}
		rec.observe(func() map[string]int64 { return copyIM(lastInputs) }, m.Branches)
		if st, fired := tl.Tick(newly, 0, 0); fired {
			metrics.Add(obs.CStalls, 1)
			emit(obs.Event{Kind: obs.CoverageStall, Run: int(st.Run), Covered: st.Covered, Window: st.Window})
		}
		if sink != nil {
			emit(obs.Event{Kind: obs.RunEnd, Run: report.Runs, Steps: m.Steps(),
				Outcome: runOutcome(rerr), Path: pathString(m.Branches)})
		}

		if rerr != nil && rerr.Outcome == machine.Interrupted {
			if reason, stop := tripped(deadline, o.Cancel); stop {
				report.Stopped = reason
			} else {
				report.Stopped = StopDeadline
			}
			return report, nil
		}
		if rerr != nil && rerr.Outcome != machine.HaltOK {
			isBug := rerr.Outcome == machine.Aborted || rerr.Outcome == machine.Crashed ||
				(rerr.Outcome == machine.StepLimit && o.ReportStepLimit)
			if isBug {
				sig := bugSig(rerr)
				if !seenBugs[sig] {
					seenBugs[sig] = true
					report.Bugs = append(report.Bugs, Bug{
						Kind:   rerr.Outcome,
						Msg:    rerr.Msg,
						Pos:    rerr.Pos,
						Run:    report.Runs,
						Inputs: copyIM(lastInputs),
					})
					metrics.Add(obs.CBugs, 1)
					emit(obs.Event{Kind: obs.BugFound, Run: report.Runs,
						Outcome: rerr.Outcome.String(), Msg: rerr.Msg, Pos: rerr.Pos.String()})
				}
				if o.StopAtFirstBug {
					report.Stopped = StopFirstBug
					return report, nil
				}
			}
		}
	}
	report.Stopped = StopMaxRuns
	return report, nil
}

package minisip

import (
	"fmt"
	"sort"
	"time"

	"dart/internal/audit"
	"dart/internal/frontend"
	"dart/internal/iface"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/sema"
)

// SourceText returns the complete MiniC source of the library (core +
// transaction layer): what Compile compiles, exposed so the job service
// can register "minisip" as a named library.
func SourceText() string { return Source + transactionSource }

// Compile builds the miniSIP library.
func Compile() (*ir.Prog, *sema.Program, error) {
	prog, sem, err := frontend.Compile(SourceText(), nil, false)
	if err != nil {
		return nil, nil, fmt.Errorf("minisip %w", err)
	}
	return prog, sem, nil
}

// Entry is the audit result for one externally visible function.
type Entry struct {
	Function string
	// Crashed reports whether any run crashed (segfault / div-by-zero).
	Crashed bool
	// Runs is the number of executions spent on this function.
	Runs int
	// FirstCrashRun is the 1-based run that first crashed (0 if none).
	FirstCrashRun int
	// DistinctCrashes counts distinct crash sites found.
	DistinctCrashes int
	// Status is the supervision outcome (ok / bugs / timeout /
	// internal-fault / cancelled).
	Status audit.Status
}

// Result summarizes a whole-library audit.
type Result struct {
	Entries []Entry
	// CrashedFunctions / TotalFunctions reproduce the paper's headline
	// ratio ("DART found a way to crash 65% of the oSIP functions").
	CrashedFunctions int
	TotalFunctions   int
	TotalRuns        int
}

// Fraction returns the crashed-function ratio.
func (r *Result) Fraction() float64 {
	if r.TotalFunctions == 0 {
		return 0
	}
	return float64(r.CrashedFunctions) / float64(r.TotalFunctions)
}

// Audit replays the paper's oSIP experiment: every externally visible
// function becomes the toplevel in turn, with a budget of maxRuns
// executions (the paper used 1000); crashes are counted per function.
// When useRandom is true the runs use pure random testing instead of the
// directed search, providing the baseline comparison.
func Audit(prog *ir.Prog, sem *sema.Program, seed int64, maxRuns int, useRandom bool) (*Result, error) {
	return AuditSupervised(prog, sem, seed, maxRuns, useRandom, 0, 0)
}

// AuditSupervised is Audit with a per-function wall-clock deadline and
// an explicit worker-pool size (0 = GOMAXPROCS).  Function i always runs
// with seed+i, so — as long as no deadline trips — the results are
// byte-identical for any jobs value; the pool only changes wall-clock
// time.
func AuditSupervised(prog *ir.Prog, sem *sema.Program, seed int64, maxRuns int, useRandom bool, timeout time.Duration, jobs int) (*Result, error) {
	fns := iface.Candidates(sem)
	sort.Strings(fns)

	batch := audit.Run(prog, audit.Options{
		Toplevels: fns,
		Seed:      seed,
		MaxRuns:   maxRuns,
		UseRandom: useRandom,
		Timeout:   timeout,
		Jobs:      jobs,
	})

	res := &Result{TotalFunctions: len(fns), TotalRuns: batch.TotalRuns}
	for _, e := range batch.Entries {
		if e.Report == nil {
			return nil, fmt.Errorf("minisip audit of %s: %s", e.Function, e.Err)
		}
		entry := Entry{Function: e.Function, Runs: e.Report.Runs, Status: e.Status}
		for _, b := range e.Report.Bugs {
			if b.Kind == machine.Crashed {
				entry.DistinctCrashes++
				if !entry.Crashed {
					entry.Crashed = true
					entry.FirstCrashRun = b.Run
				}
			}
		}
		if entry.Crashed {
			res.CrashedFunctions++
		}
		res.Entries = append(res.Entries, entry)
	}
	return res, nil
}

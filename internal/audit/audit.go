// Package audit runs a fault-tolerant whole-library audit: the paper's
// oSIP experiment (Sec. 4.3) at industrial scale.  Every candidate
// toplevel function is searched independently — its own seed, its own
// run budget, its own wall-clock deadline, its own recover barrier —
// and the candidates are fanned out over a worker pool.  A hung,
// diverging, or internally-faulting function degrades to a partial
// per-function result (ok / bugs / timeout / internal-fault) and never
// takes down the batch.
//
// Determinism: function i always runs with seed Seed+i regardless of
// which worker picks it up or in which order, so as long as no deadline
// trips, a batch produces byte-identical results for any Jobs value.
package audit

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"dart/internal/concolic"
	"dart/internal/corpus"
	"dart/internal/coverage"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/obs"
)

// Status classifies one function's audit outcome.
type Status string

// Statuses.
const (
	// OK: the search finished within its budgets and found nothing.
	OK Status = "ok"
	// Buggy: the search found at least one bug (the entry's report
	// carries the bugs and their replayable input vectors).
	Buggy Status = "bugs"
	// TimedOut: the per-function deadline tripped (even after the
	// reduced-budget retry); the report is partial.
	TimedOut Status = "timeout"
	// Faulted: the engine failed internally on this function; the batch
	// carries the diagnostic and continues.
	Faulted Status = "internal-fault"
	// Cancelled: the batch-wide Cancel channel was closed before this
	// function finished.
	Cancelled Status = "cancelled"
)

// Options configures a library audit.
type Options struct {
	// Toplevels are the functions to audit; entry order follows it.
	Toplevels []string
	// Seed drives the batch: function i runs with Seed+i, making results
	// independent of worker scheduling.
	Seed int64
	// MaxRuns is the per-function execution budget (default 1000, the
	// paper's oSIP budget).
	MaxRuns int
	// MaxSteps bounds each execution (0 = machine default).
	MaxSteps int64
	// Timeout is the per-function wall-clock deadline (0 = none).
	Timeout time.Duration
	// RetryRuns is the run budget for the single retry of a timed-out
	// function: a smaller search may fit the same deadline, salvaging a
	// complete-if-shallower result.  Default MaxRuns/10 (min 1); set
	// negative to disable the retry.
	RetryRuns int
	// Jobs is the worker-pool size: how many functions are audited
	// concurrently.  Default GOMAXPROCS / Workers (min 1), so the batch
	// respects one total CPU budget — raising Workers narrows Jobs
	// instead of oversubscribing.  Set both explicitly to oversubscribe
	// on purpose.
	Jobs int
	// Workers is the per-function search parallelism, passed through to
	// concolic.Options.Workers (default 1: the sequential engines).
	// Jobs spreads the CPU across many small functions; Workers
	// concentrates it inside few large ones.
	Workers int
	// UseRandom selects the pure random-testing baseline.
	UseRandom bool
	// Interpreter runs every per-function search on the reference
	// tree-walking interpreter instead of the compiled engine (the
	// -xcheck differential gate's other half).
	Interpreter bool
	// Depth, Strategy, ReportStepLimit, SolverBudget, SolveCacheCap, and
	// LibImpls pass through to every per-function search.  Each function
	// gets its own solve cache (like its own metrics registry), so the
	// cache keeps audit results independent of Jobs.
	Depth           int
	Strategy        concolic.Strategy
	ReportStepLimit bool
	SolverBudget    int64
	SolveCacheCap   int
	LibImpls        map[string]machine.LibImpl
	// Cancel aborts the whole batch when closed; finished entries keep
	// their results, the rest report Cancelled.
	Cancel <-chan struct{}
	// Observer receives the trace events of every per-function search,
	// plus AuditFnStart/AuditFnEnd lifecycle brackets.  It must be safe
	// for concurrent use when Jobs > 1 or Workers > 1 (the bundled obs
	// sinks are).  Events carry no audit-job identity, so the
	// per-function event multiset is the same for any Jobs value; with
	// Workers > 1 each event additionally names its search worker.
	Observer obs.Sink
	// OnEntry, when non-nil, is called with each function's finished
	// Entry as it completes (from the worker goroutine that ran it, so
	// it must be safe for concurrent use when Jobs > 1).  The live ops
	// server uses it to fold per-function coverage in as it lands.
	OnEntry func(Entry)
	// ProfileLabels tags each worker's goroutine with a dart_fn pprof
	// label naming the function under test, so CPU profiles scraped
	// from /debug/pprof attribute samples per audited function.  Off by
	// default: label maintenance costs a little on every search.
	ProfileLabels bool
	// CollectProfile asks every per-function search for a cost profile
	// (concolic.Options.CollectProfile); the per-function profiles land
	// on each Entry's report and merge into Result.Profile.
	CollectProfile bool
	// CollectExplain asks every per-function search for a coverage
	// explainer ledger (concolic.Options.CollectExplain); the
	// per-function ledgers land on each Entry's report and merge into
	// Result.Explain, where concolic.ResolveExplain against the merged
	// Coverage yields the whole-library "why not covered" verdicts.
	CollectExplain bool
	// StallWindow passes through to concolic.Options.StallWindow.
	StallWindow int64
	// Corpus, when non-nil, enables incremental re-audit.  Before each
	// function is searched its stored entry is consulted: if the
	// function's IR content hash and the batch's options signature both
	// match, the entry's distilled suite and bug fixtures are replayed
	// (pure concrete execution, no solver) and — only if they reproduce
	// the stored coverage and failures exactly — substituted for the
	// search.  Functions that do search record their runs, distill them
	// into a suite, and store a fresh entry; every search also layers
	// the corpus's persistent solve cache under its in-memory LRU.  A
	// corrupt or stale corpus degrades to the full search, never to a
	// wrong verdict.
	Corpus *corpus.Corpus
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxRuns <= 0 {
		out.MaxRuns = 1000
	}
	if out.Depth <= 0 {
		out.Depth = 1
	}
	if out.Workers <= 0 {
		out.Workers = 1
	}
	if out.Jobs <= 0 {
		out.Jobs = runtime.GOMAXPROCS(0) / out.Workers
		if out.Jobs < 1 {
			out.Jobs = 1
		}
	}
	if out.RetryRuns == 0 {
		out.RetryRuns = out.MaxRuns / 10
		if out.RetryRuns < 1 {
			out.RetryRuns = 1
		}
	}
	return out
}

// Entry is the audit result for one function.
type Entry struct {
	Function string
	Status   Status
	// Report is the (possibly partial) search report.  It is nil only
	// when the search could not run at all (Status Faulted, see Err).
	Report *concolic.Report
	// Err holds the internal-fault description when Status is Faulted
	// and the fault prevented any report.
	Err string
	// Retried reports that the function first timed out and was re-run
	// once with the reduced RetryRuns budget.
	Retried bool
	// CachedByCorpus reports that this entry was answered by replaying
	// the function's corpus suite instead of searching (its Report is
	// the validated stored result).
	CachedByCorpus bool
	// Elapsed is the wall-clock time this function's audit took
	// (including the retry, when one happened).
	Elapsed time.Duration
}

// Result is the batch outcome.
type Result struct {
	// Entries holds one result per requested function, in input order,
	// always fully populated regardless of timeouts or faults.
	Entries []Entry
	// Per-status counts.
	OK, Buggy, TimedOut, Faulted, Cancelled int
	// CorpusHits counts entries answered by corpus replay; CorpusStores
	// counts entries written or refreshed (both zero without a corpus).
	CorpusHits, CorpusStores int
	// CorpusNotes carries corpus-layer diagnostics (corrupt artifacts
	// discarded, flush failures) — informational, never verdicts.
	CorpusNotes []string
	// TotalRuns sums the executions spent across the batch.
	TotalRuns int
	// Metrics aggregates every per-function search's metrics snapshot.
	Metrics *obs.Snapshot
	// Profile aggregates every per-function search's cost profile (nil
	// unless Options.CollectProfile); sites stay distinguishable after
	// the merge because each carries its function name.
	Profile *obs.ProfileSnapshot
	// Coverage merges every per-function report's branch coverage into
	// one whole-library set (sites are program-global, so the union is
	// well-defined across functions).
	Coverage *coverage.Set
	// Explain merges every per-function report's coverage-explainer
	// ledger (nil unless Options.CollectExplain); sites are
	// program-global, so cause tallies sum exactly like Coverage unions.
	// Per-search timelines are per-function texture and do not merge;
	// the summed stall count survives.
	Explain *obs.ExplainSnapshot
}

// Functions returns how many functions were audited.
func (r *Result) Functions() int { return len(r.Entries) }

// Run audits every function in opts.Toplevels over prog.
func Run(prog *ir.Prog, opts Options) *Result {
	o := opts.withDefaults()
	entries := make([]Entry, len(o.Toplevels))

	// The audit's own lifecycle events have no per-function report to
	// attach a diagnostic to, so a panicking user sink is contained by
	// Guarded instead of the engine's recover barriers.
	lifecycle := obs.Guarded(o.Observer)

	cctx := newCorpusCtx(prog, o.Corpus)
	code := compileShared(prog, o)

	jobs := o.Jobs
	if jobs > len(o.Toplevels) && len(o.Toplevels) > 0 {
		jobs = len(o.Toplevels)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				entries[i] = auditOne(prog, code, o, i, lifecycle, cctx)
				if o.OnEntry != nil {
					notifyEntry(o.OnEntry, entries[i])
				}
			}
		}()
	}
	for i := range o.Toplevels {
		idx <- i
	}
	close(idx)
	wg.Wait()

	res := &Result{
		Entries:  entries,
		Metrics:  &obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistView{}},
		Coverage: coverage.New(prog.NumSites),
	}
	for i := range entries {
		switch entries[i].Status {
		case OK:
			res.OK++
		case Buggy:
			res.Buggy++
		case TimedOut:
			res.TimedOut++
		case Faulted:
			res.Faulted++
		case Cancelled:
			res.Cancelled++
		}
		if entries[i].CachedByCorpus {
			res.CorpusHits++
		}
		if entries[i].Report != nil {
			res.TotalRuns += entries[i].Report.Runs
			res.Metrics.Merge(entries[i].Report.Metrics)
			res.Coverage.Merge(entries[i].Report.Coverage)
			if p := entries[i].Report.Profile; p != nil {
				if res.Profile == nil {
					// Start from an empty snapshot and merge in, so the
					// result never shares slice backing with an entry.
					res.Profile = &obs.ProfileSnapshot{}
				}
				res.Profile.Merge(p)
			}
			if x := entries[i].Report.Explain; x != nil {
				if res.Explain == nil {
					// Same no-shared-backing discipline as Profile.
					res.Explain = &obs.ExplainSnapshot{}
				}
				res.Explain.Merge(x)
			}
		}
	}
	if cctx != nil {
		res.CorpusStores = int(cctx.stores.Load())
		if err := cctx.c.FlushSolves(); err != nil {
			res.CorpusNotes = append(res.CorpusNotes, err.Error())
		}
		res.CorpusNotes = append(res.CorpusNotes, cctx.c.Notes()...)
	}
	return res
}

// notifyEntry invokes the OnEntry callback behind a recover barrier:
// like a panicking observer, a panicking callback must not take down an
// audit worker.
func notifyEntry(fn func(Entry), e Entry) {
	defer func() { recover() }()
	fn(e)
}

// compileShared lowers prog once for the whole pass: the compiled image
// is immutable, so every search and suite replay of the batch shares it
// instead of compiling per function.  Nil under Interpreter — and if
// compiling panics, so that each search compiles (and faults) behind its
// own recover barrier instead of taking the batch down.
func compileShared(prog *ir.Prog, o Options) (code *machine.Compiled) {
	if o.Interpreter {
		return nil
	}
	defer func() {
		if recover() != nil {
			code = nil
		}
	}()
	return machine.Compile(prog)
}

// auditOne searches one function under its own deadline and recover
// barrier.  The engine already isolates per-run and per-solve panics;
// this barrier is the last line of defense for anything that escapes it,
// so a worker goroutine can never die and wedge the pool.  code is the
// pass's shared compiled image (nil: interpreter, or compile per search).
func auditOne(prog *ir.Prog, code *machine.Compiled, o Options, i int, lifecycle obs.Sink, cctx *corpusCtx) (entry Entry) {
	entry = Entry{Function: o.Toplevels[i]}
	start := time.Now()
	if lifecycle != nil {
		lifecycle.Event(obs.Event{Kind: obs.AuditFnStart, Fn: entry.Function})
	}
	defer func() {
		if r := recover(); r != nil {
			entry.Status = Faulted
			entry.Err = fmt.Sprintf("panic: %v", r)
		}
		entry.Elapsed = time.Since(start)
		if lifecycle != nil {
			ev := obs.Event{Kind: obs.AuditFnEnd, Fn: entry.Function, Status: string(entry.Status)}
			if entry.Report != nil {
				ev.Runs = entry.Report.Runs
				ev.Bugs = len(entry.Report.Bugs)
			}
			lifecycle.Event(ev)
		}
	}()

	search := func() {
		if cctx != nil {
			if rep, ok := cctx.tryWarm(prog, code, o, i, lifecycle); ok {
				entry.Report = rep
				entry.Status = statusOf(rep)
				entry.CachedByCorpus = true
				return
			}
		}
		rep, err := searchOne(prog, code, o, i, o.MaxRuns, cctx)
		if err != nil {
			entry.Status, entry.Err = Faulted, err.Error()
			return
		}
		if rep.Stopped == concolic.StopDeadline && o.RetryRuns > 0 {
			// One retry with a reduced run budget: the deadline is unchanged,
			// but a smaller search may finish inside it, upgrading a timeout
			// into a (shallower) complete result.
			entry.Retried = true
			if rep2, err2 := searchOne(prog, code, o, i, o.RetryRuns, cctx); err2 == nil {
				rep = rep2
			}
		}
		entry.Report = rep
		entry.Status = statusOf(rep)
		if cctx != nil {
			cctx.store(prog, o, i, rep, entry.Status, entry.Retried, lifecycle)
		}
	}
	if o.ProfileLabels {
		// Tag every sample this worker produces while searching this
		// function, so /debug/pprof/profile breaks CPU down by dart_fn.
		pprof.Do(context.Background(), pprof.Labels("dart_fn", entry.Function), func(context.Context) {
			search()
		})
	} else {
		search()
	}
	return entry
}

// searchOne runs the directed (or random) search for function i with the
// batch-derived seed and the per-function supervision budgets.
func searchOne(prog *ir.Prog, code *machine.Compiled, o Options, i, maxRuns int, cctx *corpusCtx) (*concolic.Report, error) {
	copts := concolic.Options{
		Toplevel:        o.Toplevels[i],
		Depth:           o.Depth,
		MaxRuns:         maxRuns,
		MaxSteps:        o.MaxSteps,
		Seed:            o.Seed + int64(i),
		Strategy:        o.Strategy,
		ReportStepLimit: o.ReportStepLimit,
		SolverBudget:    o.SolverBudget,
		SolveCacheCap:   o.SolveCacheCap,
		Workers:         o.Workers,
		LibImpls:        o.LibImpls,
		Timeout:         o.Timeout,
		Cancel:          o.Cancel,
		Observer:        o.Observer,
		// Per-function searches are long enough that the registry is
		// noise, and Result.Metrics should not depend on an observer.
		CollectMetrics: true,
		CollectProfile: o.CollectProfile,
		CollectExplain: o.CollectExplain,
		StallWindow:    o.StallWindow,
		Interpreter:    o.Interpreter,
		Compiled:       code,
	}
	if cctx != nil {
		// Record runs for suite distillation and layer the corpus's
		// persistent solve cache under the search's in-memory LRU.
		copts.RecordRuns = true
		copts.Persistent = cctx.c
	}
	if o.UseRandom {
		return concolic.RandomTest(prog, copts)
	}
	return concolic.Run(prog, copts)
}

// statusOf classifies a finished per-function report.  A deadline trip
// outranks found bugs (the bugs are still on the report); internal
// faults outrank a clean finish.
func statusOf(rep *concolic.Report) Status {
	switch {
	case rep.Stopped == concolic.StopCancelled:
		return Cancelled
	case rep.Stopped == concolic.StopDeadline:
		return TimedOut
	case len(rep.Bugs) > 0:
		return Buggy
	case len(rep.InternalErrors) > 0 || rep.Stopped == concolic.StopInternal:
		return Faulted
	default:
		return OK
	}
}

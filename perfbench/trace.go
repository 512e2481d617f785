package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dart/internal/obs"
)

// tracer is the benchmark's own obs.Sink.  It timestamps the event
// boundaries the program already emits and cuts every traced stream
// (one function's audit, one job's execution) into consecutive
// segments named after the layer that owns the interval between two
// boundaries, so a stream's segments partition its wall time exactly:
//
//	audit-fn-start -> corpus-hit|corpus-miss       corpus.read
//	audit-fn-start|corpus-miss -> run-start        search.setup
//	run-start -> run-end                           concolic.run
//	solver-call -> solver-verdict                  solver.solve
//	run-end|solver-verdict -> run-start|solver-call concolic.between
//	run-end|solver-verdict -> corpus-store         corpus.write
//	run-end|solver-verdict -> audit-fn-end         search.finish
//
// Segments run on lanes (audit workers or job executors), several at
// once, so their times are lane-seconds; the account divides them by
// the lane count to give each layer's share of wall time.  Work the
// benchmark does between passes on its own goroutine (front end,
// checks) is timed directly and counted once.  Lane time no traced
// stream covers is idle; what is left of the traced wall is
// unattributed.
type tracer struct {
	t0    time.Time
	lanes int

	// streams holds the open streams.  Each is fed by one goroutine (its
	// audit worker or job executor) and merges into the totals below
	// under mu only when it ends, so lanes do not contend per event.
	streams sync.Map // streamKey -> *stream
	kept    atomic.Int64

	mu   sync.Mutex
	jobs map[string]*jobTrace
	lane map[string]int64 // lane-nanoseconds per layer
	main map[string]int64 // wall-nanoseconds per layer, benchmark goroutine

	// Pass bracketing: passTop sums the top-level lane spans (functions
	// outside jobs, jobs) that ended inside the current pass.
	passStart int64
	passTop   int64

	tally
	runUS, solveUS, betweenUS []float64
	hitMS, missMS             []float64
	spans                     []span
}

// tally counts the events of a stream.
type tally struct {
	fnStarts, runs, calls, verdicts, sat, cacheHits     int64
	mispredicts, restarts, fallbacks                    int64
	corpusHits, corpusMisses, corpusStores, work, steps int64
}

func (a *tally) add(b *tally) {
	a.fnStarts += b.fnStarts
	a.runs += b.runs
	a.calls += b.calls
	a.verdicts += b.verdicts
	a.sat += b.sat
	a.cacheHits += b.cacheHits
	a.mispredicts += b.mispredicts
	a.restarts += b.restarts
	a.fallbacks += b.fallbacks
	a.corpusHits += b.corpusHits
	a.corpusMisses += b.corpusMisses
	a.corpusStores += b.corpusStores
	a.work += b.work
	a.steps += b.steps
}

// maxSpans caps the raw spans kept for the trace file; the account and
// samples cover every span regardless.
const maxSpans = 200000

type span struct {
	Layer  string `json:"layer"`
	Stream string `json:"stream"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type streamKey struct {
	job, fn string
	worker  int
}

// The layers a stream's segments belong to.
const (
	layCorpusRead = iota
	laySearchSetup
	layRun
	laySolve
	layBetween
	layCorpusWrite
	laySearchFinish
	layOther
	numLayers
)

var layerNames = [numLayers]string{"corpus.read", "search.setup", "concolic.run", "solver.solve",
	"concolic.between", "corpus.write", "search.finish", "audit.other"}

type stream struct {
	key        streamKey
	last       obs.Kind
	at, start  int64
	runStart   int64
	callAt     int64
	lastRunEnd int64
	solveGap   int64 // solver time since lastRunEnd
	sawRunEnd  bool
	corpus     obs.Kind

	tally
	lane                      [numLayers]int64
	runUS, solveUS, betweenUS []float64
	spans                     []span
}

type jobTrace struct {
	started int64 // -1 until an executor picks the job up
	fnNS    int64 // lane time of the job's audited functions
}

func newTracer(lanes int) *tracer {
	return &tracer{
		t0:    time.Now(),
		lanes: lanes,
		jobs:  map[string]*jobTrace{},
		lane:  map[string]int64{},
		main:  map[string]int64{},
	}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// segmentLayer names the layer owning the interval between two stream
// boundaries.
func segmentLayer(prev, cur obs.Kind) int {
	switch {
	case prev == obs.AuditFnStart && (cur == obs.CorpusHit || cur == obs.CorpusMiss):
		return layCorpusRead
	case prev == obs.CorpusHit:
		return layCorpusRead
	case (prev == obs.AuditFnStart || prev == obs.CorpusMiss) && cur == obs.RunStart:
		return laySearchSetup
	case prev == obs.RunStart && cur == obs.RunEnd:
		return layRun
	case prev == obs.SolverCall && cur == obs.SolverVerdict:
		return laySolve
	case (prev == obs.RunEnd || prev == obs.SolverVerdict) && (cur == obs.RunStart || cur == obs.SolverCall):
		return layBetween
	case cur == obs.CorpusStore:
		return layCorpusWrite
	case prev == obs.RunEnd || prev == obs.SolverVerdict:
		return laySearchFinish
	}
	return layOther
}

// Event implements obs.Sink.
func (t *tracer) Event(ev obs.Event) {
	now := t.now()
	if ev.Fn == "" {
		t.jobEvent(ev, now)
		return
	}
	key := streamKey{ev.Job, ev.Fn, ev.Worker}
	if ev.Kind == obs.AuditFnStart {
		t.streams.Store(key, &stream{key: key, last: obs.AuditFnStart, at: now, start: now, tally: tally{fnStarts: 1}})
		return
	}
	v, ok := t.streams.Load(key)
	if !ok {
		v, _ = t.streams.LoadOrStore(key, &stream{key: key, last: obs.AuditFnStart, at: now, start: now})
	}
	s := v.(*stream)
	switch ev.Kind {
	case obs.Misprediction:
		s.mispredicts++
	case obs.Restart:
		s.restarts++
	case obs.FallbackConcrete:
		s.fallbacks++
	case obs.SolveCacheHit:
		s.cacheHits++
	case obs.AuditFnEnd, obs.RunStart, obs.RunEnd, obs.SolverCall, obs.SolverVerdict,
		obs.CorpusHit, obs.CorpusMiss, obs.CorpusStore:
		t.boundary(s, ev, now)
	}
}

// boundary closes the stream's current segment at now.
func (t *tracer) boundary(s *stream, ev obs.Event, now int64) {
	layer := segmentLayer(s.last, ev.Kind)
	s.lane[layer] += now - s.at
	if t.kept.Load() < maxSpans {
		s.spans = append(s.spans, span{Layer: layerNames[layer], Stream: ev.Fn, Start: s.at, End: now})
		t.kept.Add(1)
	}
	switch ev.Kind {
	case obs.RunStart:
		if s.sawRunEnd {
			s.betweenUS = append(s.betweenUS, float64(now-s.lastRunEnd-s.solveGap)/1e3)
		}
		s.runStart = now
	case obs.RunEnd:
		s.runs++
		s.steps += ev.Steps
		s.runUS = append(s.runUS, float64(now-s.runStart)/1e3)
		s.lastRunEnd, s.solveGap, s.sawRunEnd = now, 0, true
	case obs.SolverCall:
		s.calls++
		s.callAt = now
	case obs.SolverVerdict:
		s.verdicts++
		s.work += ev.Work
		if ev.Verdict == "sat" {
			s.sat++
		}
		s.solveUS = append(s.solveUS, float64(now-s.callAt)/1e3)
		s.solveGap += now - s.callAt
	case obs.CorpusHit:
		s.corpusHits++
		s.corpus = ev.Kind
	case obs.CorpusMiss:
		s.corpusMisses++
		s.corpus = ev.Kind
	case obs.CorpusStore:
		s.corpusStores++
	case obs.AuditFnEnd:
		t.streams.Delete(s.key)
		t.finish(s, now)
	}
	s.last, s.at = ev.Kind, now
}

// finish merges an ended stream into the totals.
func (t *tracer) finish(s *stream, now int64) {
	d := now - s.start
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tally.add(&s.tally)
	for l, ns := range s.lane {
		if ns != 0 {
			t.lane[layerNames[l]] += ns
		}
	}
	t.runUS = append(t.runUS, s.runUS...)
	t.solveUS = append(t.solveUS, s.solveUS...)
	t.betweenUS = append(t.betweenUS, s.betweenUS...)
	t.spans = append(t.spans, s.spans...)
	switch s.corpus {
	case obs.CorpusHit:
		t.hitMS = append(t.hitMS, float64(d)/1e6)
	case obs.CorpusMiss:
		t.missMS = append(t.missMS, float64(d)/1e6)
	}
	if s.key.job != "" {
		if j := t.jobs[s.key.job]; j != nil {
			j.fnNS += d
		}
	} else {
		t.passTop += d
	}
}

// jobEvent handles the job service's lifecycle events: a job's
// executor time outside its functions is serve.job.
func (t *tracer) jobEvent(ev obs.Event, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case obs.JobQueued:
		t.jobs[ev.Job] = &jobTrace{started: -1}
	case obs.JobStart:
		if j := t.jobs[ev.Job]; j != nil {
			j.started = now
		}
	case obs.JobEnd:
		j := t.jobs[ev.Job]
		delete(t.jobs, ev.Job)
		if j == nil || j.started < 0 {
			return // served from the result store: no executor time
		}
		d := now - j.started
		t.lane["serve.job"] += d - j.fnNS
		t.addSpan("serve.job", ev.Job, j.started, now)
		t.passTop += d
	}
}

// addSpan keeps one span while under the cap.  Caller holds mu.
func (t *tracer) addSpan(layer, stream string, start, end int64) {
	if t.kept.Load() < maxSpans {
		t.spans = append(t.spans, span{Layer: layer, Stream: stream, Start: start, End: end})
		t.kept.Add(1)
	}
}

// timeMain records a span of work the benchmark ran on its own
// goroutine while no pass was active.  A nil tracer records nothing.
func (t *tracer) timeMain(layer string, start time.Time) {
	if t == nil {
		return
	}
	end := t.now()
	d := time.Since(start).Nanoseconds()
	t.mu.Lock()
	t.main[layer] += d
	t.addSpan(layer, "bench", end-d, end)
	t.mu.Unlock()
}

// beginPass and endPass bracket a period in which the lanes work; lane
// time no top-level stream covered in it is idle.
func (t *tracer) beginPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.passStart, t.passTop = t.now(), 0
	t.mu.Unlock()
}

// settle waits, up to limit, until every job the service announced has
// ended: a job's report can reach its client just before the executor
// emits the job's end, and endPass must count the job inside the pass.
func (t *tracer) settle(limit time.Duration) {
	if t == nil {
		return
	}
	for end := time.Now().Add(limit); time.Now().Before(end); time.Sleep(time.Millisecond) {
		t.mu.Lock()
		open := len(t.jobs)
		t.mu.Unlock()
		if open == 0 {
			return
		}
	}
}

func (t *tracer) endPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	wall := t.now() - t.passStart
	if idle := int64(t.lanes)*wall - t.passTop; idle > 0 {
		t.lane["idle"] += idle
	}
	t.mu.Unlock()
}

// account returns each layer's share of wall time in seconds, plus the
// unattributed remainder of wall.
func (t *tracer) account(wall time.Duration) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	sum := 0.0
	for l, ns := range t.lane {
		v := float64(ns) / float64(t.lanes) / 1e9
		out[l] += v
		sum += v
	}
	for l, ns := range t.main {
		v := float64(ns) / 1e9
		out[l] += v
		sum += v
	}
	out["unattributed"] = wall.Seconds() - sum
	return out
}

// write saves the account and the kept spans as JSON under dir.
func (t *tracer) write(path string, header map[string]any, acct map[string]float64) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := map[string]any{"account_seconds": acct, "spans": spans, "spans_kept_max": maxSpans}
	for k, v := range header {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

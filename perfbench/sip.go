package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dart"
	"dart/internal/audit"
	"dart/internal/corpus"
	"dart/internal/machine"
	"dart/internal/minisip"
	"dart/internal/obs"
)

const (
	// sipRuns is the paper's per-function run budget for the oSIP audit.
	sipRuns = 1000
	// A function verdict's latency limit from the (re-)audit request,
	// near the 90th percentile of job_ms measured on a shared 2-vCPU VM.
	sipAuditSLOms   = 500
	sipReauditSLOms = 50
)

func init() {
	lanes := runtime.GOMAXPROCS(0) // audit.Options.Jobs default
	register(workload{name: "sip-audit", lanes: lanes, setup: setupSIPAudit})
	register(workload{name: "sip-reaudit", lanes: lanes, setup: setupSIPReaudit})
}

// compileSIP compiles the miniSIP library and checks that the
// known-answer table names exactly its functions.
func compileSIP(src string) (*dart.Program, []string, error) {
	p, _, err := compileTimed(src)
	if err != nil {
		return nil, nil, err
	}
	fns := dart.Functions(p)
	if len(fns) != len(minisipAnswers) {
		return nil, nil, fmt.Errorf("miniSIP has %d functions, the answer table %d", len(fns), len(minisipAnswers))
	}
	for _, fn := range fns {
		if _, ok := minisipAnswers[fn]; !ok {
			return nil, nil, fmt.Errorf("miniSIP function %s has no known answer", fn)
		}
	}
	return p, fns, nil
}

// auditPass runs one audit.Run as a traced pass and folds its entries
// and its CPU time into r.  Each function's verdict is one job, due when
// the audit was requested (due) and done when the audit hands the entry
// over.
func auditPass(p *dart.Program, opts audit.Options, tr *tracer, r *result, due time.Time, sloMS float64) *audit.Result {
	if tr != nil {
		opts.Observer = tr
		opts.CollectProfile = true
	}
	var mu sync.Mutex
	var arrived []time.Duration
	opts.OnEntry = func(audit.Entry) {
		d := time.Since(due)
		mu.Lock()
		arrived = append(arrived, d)
		mu.Unlock()
	}
	tr.beginPass()
	c, t := processCPU(), time.Now()
	res := audit.Run(p.IR, opts)
	d := time.Since(t)
	r.cpu += processCPU() - c
	tr.endPass()
	for _, a := range arrived {
		recordJob(r, a, sloMS)
	}

	var elapsed time.Duration
	for _, e := range res.Entries {
		r.verdictMS = append(r.verdictMS, ms(e.Elapsed))
		elapsed += e.Elapsed
	}
	r.auditS = append(r.auditS, d.Seconds())
	r.requests++
	r.covered += int64(res.Coverage.Covered())
	r.total += int64(res.Coverage.Total())
	r.ops++
	if res.Profile != nil {
		r.prof.Merge(res.Profile)
	}
	lanes := runtime.GOMAXPROCS(0)
	if opts.Jobs > 0 {
		lanes = opts.Jobs
	}
	r.layer["audit.pool_idle_share"] += 1 - elapsed.Seconds()/(float64(lanes)*d.Seconds())
	return res
}

// recordJob records one job's latency from its due time.
func recordJob(r *result, d time.Duration, sloMS float64) {
	r.jobs++
	r.jobMS = append(r.jobMS, ms(d))
	if ms(d) > sloMS {
		r.sloMiss++
	}
}

// probeFrontEnd times n compiles of src stage by stage and n engine
// compiles, and records the medians.
func probeFrontEnd(r *result, src string, n int) error {
	var parse, check, lower, opt, mc []float64
	var p *dart.Program
	for i := 0; i < n; i++ {
		var ft frontTimes
		var err error
		p, ft, err = compileTimed(src)
		if err != nil {
			return err
		}
		parse = append(parse, ms(ft.parse))
		check = append(check, ms(ft.check))
		lower = append(lower, ms(ft.lower))
		opt = append(opt, ms(ft.optimize))
		t := time.Now()
		machine.Compile(p.IR)
		mc = append(mc, ms(time.Since(t)))
	}
	r.layer["parser.parse_ms"] = median(parse)
	r.layer["sema.check_ms"] = median(check)
	r.layer["ir.lower_ms"] = median(lower)
	r.layer["ir.optimize_ms"] = median(opt)
	r.layer["machine.compile_ms"] = median(mc)
	r.layer["ir.instrs"] = float64(instrCount(p.IR))
	return nil
}

// sipAudit is the cold whole-library audit of miniSIP at the paper's
// budget: no corpus, default Jobs.
type sipAudit struct {
	p   *dart.Program
	fns []string
	rng *rand.Rand
}

func setupSIPAudit(b *benchEnv, chk *checker) (instance, error) {
	p, fns, err := compileSIP(minisip.SourceText())
	if err != nil {
		return nil, err
	}
	s := &sipAudit{p: p, fns: fns, rng: b.rng}
	// Warm-up pass: fills the allocator and code caches before timing.
	res := audit.Run(p.IR, audit.Options{Toplevels: fns, Seed: s.nextSeed(), MaxRuns: sipRuns})
	checkAudit(chk, p, minisipAnswers, res)
	return s, nil
}

func (s *sipAudit) nextSeed() int64 { return s.rng.Int63n(1 << 40) }

func (s *sipAudit) run(deadline time.Time, tr *tracer, r *result) error {
	for time.Now().Before(deadline) {
		opts := audit.Options{Toplevels: s.fns, Seed: s.nextSeed(), MaxRuns: sipRuns}
		res := auditPass(s.p, opts, tr, r, time.Now(), sipAuditSLOms)
		for _, e := range res.Entries {
			if e.Report != nil {
				r.runs += int64(e.Report.Runs)
			}
		}
		t := time.Now()
		checkAudit(&r.chk, s.p, minisipAnswers, res)
		r.calibrate()
		tr.timeMain("bench.check", t)
	}
	r.layer["audit.pool_idle_share"] = ratio(r.layer["audit.pool_idle_share"], float64(r.ops))
	return nil
}

func (s *sipAudit) layerProbe(r *result) error { return probeFrontEnd(r, minisip.SourceText(), 10) }

func (s *sipAudit) close() {}

// editShare is how many functions each re-audit iteration edits (of 65).
const editShare = 3

// sipReaudit is the incremental re-audit: a corpus populated by a cold
// audit, then per iteration a few seed-chosen functions edited so their
// IR hash changes while every verdict stays the same.
type sipReaudit struct {
	base    string
	fns     []string
	slots   map[string]int // function -> position just after its body's '{'
	edits   map[string]int // function -> current edit value (0 = none)
	cycle   []string       // functions left to edit in the current cycle
	rng     *rand.Rand
	seed    int64
	dir     string
	c       *corpus.Corpus
	counter int
}

// defRE finds each function definition and its opening brace.
var defRE = regexp.MustCompile(`(?m)^[a-z][a-z ]*[ *]([a-z_][a-z0-9_]*)\([^)]*\)\s*\{`)

func setupSIPReaudit(b *benchEnv, chk *checker) (instance, error) {
	src := minisip.SourceText()
	p, fns, err := compileSIP(src)
	if err != nil {
		return nil, err
	}
	s := &sipReaudit{base: src, fns: fns, slots: map[string]int{}, edits: map[string]int{},
		rng: b.rng, seed: b.rng.Int63n(1 << 40), dir: filepath.Join(b.work, "corpus")}
	for _, m := range defRE.FindAllStringSubmatchIndex(src, -1) {
		s.slots[src[m[2]:m[3]]] = m[1]
	}
	for _, fn := range fns {
		if _, ok := s.slots[fn]; !ok {
			return nil, fmt.Errorf("cannot locate the body of %s", fn)
		}
	}
	if s.c, err = corpus.Open(s.dir); err != nil {
		return nil, err
	}
	// Populate the corpus with a cold audit, then warm up with one
	// edited iteration; both are checked like a measured iteration.
	checkAudit(chk, p, minisipAnswers, audit.Run(p.IR, s.options()))
	warm := newResult()
	if err := s.iterate(nil, warm); err != nil {
		return nil, err
	}
	chk.merge(&warm.chk)
	return s, nil
}

func (s *sipReaudit) options() audit.Options {
	return audit.Options{Toplevels: s.fns, Seed: s.seed, MaxRuns: sipRuns, Corpus: s.c}
}

// edit gives the next editShare functions of a seed-shuffled cycle
// through the library a fresh dead store, so their IR (and the hash of
// every caller) changes and nothing else does.  Cycling edits every
// function equally often, whatever the seed.
func (s *sipReaudit) edit() []string {
	var chosen []string
	for len(chosen) < editShare {
		if len(s.cycle) == 0 {
			s.cycle = append(s.cycle, s.fns...)
			s.rng.Shuffle(len(s.cycle), func(i, j int) { s.cycle[i], s.cycle[j] = s.cycle[j], s.cycle[i] })
		}
		fn := s.cycle[0]
		s.cycle = s.cycle[1:]
		if slices.Contains(chosen, fn) {
			continue // the cycle wrapped inside this iteration
		}
		chosen = append(chosen, fn)
	}
	s.counter++
	for _, fn := range chosen {
		s.edits[fn] = s.counter
	}
	return chosen
}

// source renders the library with every function's current edit.
func (s *sipReaudit) source() string {
	type ins struct {
		at  int
		txt string
	}
	var all []ins
	for fn, v := range s.edits {
		all = append(all, ins{s.slots[fn], fmt.Sprintf(" int bench_edit; bench_edit = %d;", v)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	var sb strings.Builder
	prev := 0
	for _, e := range all {
		sb.WriteString(s.base[prev:e.at])
		sb.WriteString(e.txt)
		prev = e.at
	}
	sb.WriteString(s.base[prev:])
	return sb.String()
}

// iterate runs one edit + recompile + re-audit and checks it.
func (s *sipReaudit) iterate(tr *tracer, r *result) error {
	c, start := processCPU(), time.Now()
	chosen := s.edit()
	src := s.source()
	tr.timeMain("bench.edit", start)
	t := time.Now()
	p, _, err := compileTimed(src)
	if err != nil {
		return fmt.Errorf("edited miniSIP: %w", err)
	}
	tr.timeMain("frontend", t)
	r.cpu += processCPU() - c
	res := auditPass(p, s.options(), tr, r, start, sipReauditSLOms)

	t = time.Now()
	for _, e := range res.Entries {
		if e.Report == nil {
			continue
		}
		if !e.CachedByCorpus {
			r.runs += int64(e.Report.Runs)
		}
		if e.Report.Metrics != nil {
			r.runs += e.Report.Metrics.Counters[obs.CCorpusReplays]
		}
	}
	checkAudit(&r.chk, p, minisipAnswers, res)
	r.chk.record(checkEditMissed(res, chosen))
	r.layer["corpus.replay_cases"] += float64(sumCounter(res, obs.CCorpusReplays))
	r.calibrate()
	tr.timeMain("bench.check", t)
	return nil
}

// checkEditMissed is the re-audit's own check: the edited functions
// must have missed the corpus and been stored afresh.
func checkEditMissed(res *audit.Result, edited []string) error {
	misses := res.Functions() - res.CorpusHits
	if misses == 0 || res.CorpusStores == 0 {
		return fmt.Errorf("re-audit: %d misses and %d stores after editing %v; the edit did not reach the corpus",
			misses, res.CorpusStores, edited)
	}
	want := map[string]bool{}
	for _, fn := range edited {
		want[fn] = true
	}
	for _, e := range res.Entries {
		if want[e.Function] && e.CachedByCorpus {
			return fmt.Errorf("re-audit: edited function %s was answered from the corpus", e.Function)
		}
	}
	return nil
}

func sumCounter(res *audit.Result, name string) int64 {
	if res.Metrics == nil {
		return 0
	}
	return res.Metrics.Counters[name]
}

func (s *sipReaudit) run(deadline time.Time, tr *tracer, r *result) error {
	for time.Now().Before(deadline) {
		if err := s.iterate(tr, r); err != nil {
			return err
		}
	}
	r.layer["audit.pool_idle_share"] = ratio(r.layer["audit.pool_idle_share"], float64(r.ops))
	r.layer["corpus.replay_cases"] = ratio(r.layer["corpus.replay_cases"], float64(r.ops))
	r.layer["corpus.solvelog_entries"] = float64(s.c.SolveCount())
	return nil
}

func (s *sipReaudit) layerProbe(r *result) error {
	if err := probeFrontEnd(r, s.base, 10); err != nil {
		return err
	}
	var open []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := corpus.Open(s.dir); err != nil {
			return err
		}
		open = append(open, ms(time.Since(t)))
	}
	r.layer["corpus.open_ms"] = median(open)
	return nil
}

func (s *sipReaudit) close() {}

// Command dartbench is the DART repository's benchmark: a load
// generator outside the program that drives its public entry points —
// the compile pipeline, audit.Run (and through it concolic.Run),
// dart.Replay, corpus.Open and the job service over loopback POST /jobs
// — on three workloads, checks every verdict against a hand-written
// known answer, and prints one JSON result line.
//
// Usage (from the root of a checkout, through perfbench/run.sh):
//
//	dartbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off: the
// program's CPU time, scaled to a reference speed (calib.go).  --trace 1
// runs the workload untraced for the first half of the time and traced
// for the second, and reports the per-layer metrics; the traced spans
// and the per-layer account are written to
// .bench_build/trace/WORKLOAD-seedN.json.  See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dart/internal/obs"
)

// result collects one measurement's samples.
type result struct {
	chk checker

	// The end-to-end figures: the program's CPU time in the measured
	// intervals (the benchmark's own checks left out), the requests it
	// answered (audit passes, or jobs), and its concolic runs and
	// coverage.
	cpu      time.Duration
	requests int
	runs     int64
	covered  int64
	total    int64
	ops      int // operations that per-layer counts are divided by

	// Wall-clock samples; --trace 1 reports them from its untraced half.
	auditS    []float64 // one audit pass, seconds
	verdictMS []float64 // one verdict's latency
	jobMS     []float64 // one job's latency from its due time
	jobs      int       // jobs attempted
	sloMiss   int       // jobs over the workload's latency limit, or failed

	cal calibrator // reference samples taken through the measurement

	prof  obs.ProfileSnapshot
	layer map[string]float64 // workload-specific per-layer metrics
}

// calibrate takes a reference sample if one is due; the workloads call
// it between requests, outside the spans whose CPU time they count.
func (r *result) calibrate() {
	if r.cal.due() {
		r.cal.sample()
	}
}

func newResult() *result { return &result{layer: map[string]float64{}} }

// instance is a set-up workload, ready to measure.
type instance interface {
	// run measures until deadline.  A non-nil tracer is attached as the
	// program's observer and brackets the lanes' work.
	run(deadline time.Time, tr *tracer, r *result) error
	// layerProbe times direct calls into the layers the workload uses
	// (front end, engine compile, corpus open), outside any traced window.
	layerProbe(r *result) error
	close()
}

// workload is one named benchmark workload.
type workload struct {
	name  string
	lanes int // goroutines that run searches concurrently
	setup func(b *benchEnv, chk *checker) (instance, error)
}

// benchEnv is what every setup receives.
type benchEnv struct {
	rng  *rand.Rand
	work string // scratch directory inside the checkout
}

var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		root     = flag.String("root", ".", "checkout root; scratch files go under ROOT/.bench_build")
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		traceArg = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		refProc  = flag.Bool("reference", false, "serve reference samples on standard input (started by the benchmark itself)")
	)
	flag.Parse()
	if *refProc {
		return serveReference()
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "dartbench: unknown workload %q\n", *name)
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dartbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	if ref, err = startReference(); err != nil {
		fmt.Fprintf(os.Stderr, "dartbench: starting the reference process: %v\n", err)
		return 1
	}
	defer ref.stop()

	var out map[string]any
	if *traceArg == 1 {
		out, err = tracedRun(w, *root, work, *seed, *seconds)
	} else {
		out, err = measuredRun(w, work, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dartbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dartbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func env(work string, seed int64, i int) *benchEnv {
	dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
	return &benchEnv{rng: newRNG(seed), work: dir}
}

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// measuredRun sets the workload up setupRepeats times, measures it
// untraced, and reports the end-to-end metrics.
func measuredRun(w workload, work string, seed int64, seconds float64) (map[string]any, error) {
	r := newResult()
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		b := env(work, seed, i)
		if err := os.MkdirAll(b.work, 0o755); err != nil {
			return nil, err
		}
		var cal calibrator
		cal.sample()
		cal.sample()
		c := processCPU()
		var err error
		inst, err = w.setup(b, &r.chk)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := processCPU() - c
		cal.sample()
		cal.sample()
		scale, err := cal.scale()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds()*scale)
	}
	defer inst.close()

	window := time.Duration(seconds * float64(time.Second))
	heap := startHeapSampler(window)
	err := inst.run(time.Now().Add(window), nil, r)
	peak := heap.stopMB()
	if err != nil {
		return nil, err
	}
	reportNotes(w.name, &r.chk)
	scale, err := r.cal.scale()
	if err != nil {
		return nil, err
	}

	m := map[string]float64{
		"setup_s":            median(setups),
		"cpu_ms_per_request": ratio(ms(r.cpu), float64(r.requests)) * scale,
		"runs_per_cpu_s":     ratio(float64(r.runs), r.cpu.Seconds()*scale),
		"coverage_frac":      ratio(float64(r.covered), float64(r.total)),
		"peak_heap_mb":       peak,
	}
	fmt.Fprintf(os.Stderr, "dartbench: %s seed %d: %d requests in %.2f CPU-s, reference scale %.3f (%d units), %d operations, %d failed\n",
		w.name, seed, r.requests, r.cpu.Seconds(), scale, r.cal.units, r.chk.attempted, r.chk.failed)
	return resultLine(&r.chk, m, endToEndUnits), nil
}

// tracedRun measures the workload untraced for half the time, then
// traced for the other half, and reports the per-layer metrics.
func tracedRun(w workload, root, work string, seed int64, seconds float64) (map[string]any, error) {
	chk := &checker{}
	b := env(work, seed, 0)
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	inst, err := w.setup(b, chk)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer inst.close()
	half := time.Duration(seconds * float64(time.Second) / 2)

	plain := newResult()
	if err := inst.run(time.Now().Add(half), nil, plain); err != nil {
		return nil, err
	}
	r := newResult()
	if err := inst.layerProbe(r); err != nil {
		return nil, err
	}
	tr := newTracer(w.lanes)
	start := time.Now()
	if err := inst.run(start.Add(half), tr, r); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	chk.merge(&plain.chk)
	chk.merge(&r.chk)
	reportNotes(w.name, chk)

	acct := tr.account(wall)
	m := layerMetrics(r, tr, acct, wall)
	tracedCPU, err := cpuPerRequestMS(r)
	if err != nil {
		return nil, err
	}
	plainCPU, err := cpuPerRequestMS(plain)
	if err != nil {
		return nil, err
	}
	m["obs.trace_overhead_share"] = ratio(tracedCPU, plainCPU) - 1
	m["wall.audit_s"] = median(plain.auditS)
	m["wall.verdict_ms_p50"] = percentile(plain.verdictMS, 50)
	m["wall.verdict_ms_p99"] = percentile(plain.verdictMS, 99)
	m["wall.job_ms_p50"] = percentile(plain.jobMS, 50)
	m["wall.job_ms_p99"] = percentile(plain.jobMS, 99)
	m["wall.jobs_in_slo_share"] = ratio(float64(plain.jobs-plain.sloMiss), float64(plain.jobs))
	m["failed_share"] = chk.failedShare()

	path := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	header := map[string]any{"workload": w.name, "seed": seed, "lanes": w.lanes,
		"traced_wall_seconds": wall.Seconds(), "per_layer": m}
	if err := tr.write(path, header, acct); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dartbench: %s seed %d: traced %.2fs, account written to %s\n", w.name, seed, wall.Seconds(), path)
	for _, l := range sortedKeys(acct) {
		fmt.Fprintf(os.Stderr, "  %-22s %8.3fs  %5.1f%%\n", l, acct[l], 100*acct[l]/wall.Seconds())
	}
	return resultLine(chk, m, layerUnits), nil
}

// cpuPerRequestMS is the program's CPU time per request, scaled to the
// reference speed.
func cpuPerRequestMS(r *result) (float64, error) {
	scale, err := r.cal.scale()
	return ratio(ms(r.cpu), float64(r.requests)) * scale, err
}

func reportNotes(name string, c *checker) {
	for _, n := range c.notes {
		fmt.Fprintf(os.Stderr, "dartbench: %s: check failed: %s\n", name, n)
	}
}

// resultLine renders the contract's result object.  Every declared
// metric is present; a metric the run did not produce reads 0.
func resultLine(c *checker, m map[string]float64, units []metricUnit) map[string]any {
	metrics := map[string]any{}
	for _, u := range units {
		metrics[u.name] = map[string]any{"value": m[u.name], "unit": u.unit}
	}
	attempted := c.attempted
	if attempted == 0 {
		attempted = 1 // the contract's floor; a run with no operation is failed below
		c.failed = 1
	}
	return map[string]any{
		"correct":   c.failed == 0,
		"attempted": attempted,
		"failed":    c.failed,
		"metrics":   metrics,
	}
}

package main

import (
	"sort"
	"time"

	"dart/internal/obs"
)

type metricUnit struct{ name, unit string }

// endToEndUnits are the metrics of an untraced run, as BENCHMARK.json
// declares them.
var endToEndUnits = []metricUnit{
	{"setup_s", "s"},
	{"cpu_ms_per_request", "ms"},
	{"runs_per_cpu_s", "runs/s"},
	{"coverage_frac", "fraction"},
	{"peak_heap_mb", "MB"},
}

// layerUnits are the metrics of a traced run.  Counts and times are per
// operation: per audit pass (sip-audit, sip-reaudit) or per fresh job
// (jobs-mixed).  The wall.* figures come from the run's untraced half.
var layerUnits = []metricUnit{
	{"wall.audit_s", "s"},
	{"wall.verdict_ms_p50", "ms"},
	{"wall.verdict_ms_p99", "ms"},
	{"wall.job_ms_p50", "ms"},
	{"wall.job_ms_p99", "ms"},
	{"wall.jobs_in_slo_share", "fraction"},
	{"parser.parse_ms", "ms"},
	{"sema.check_ms", "ms"},
	{"ir.lower_ms", "ms"},
	{"ir.optimize_ms", "ms"},
	{"ir.instrs", "count"},
	{"machine.compile_ms", "ms"},
	{"audit.searches", "count"},
	{"concolic.runs", "count"},
	{"concolic.run_us_p50", "us"},
	{"concolic.run_us_p99", "us"},
	{"concolic.instrs_per_run", "count"},
	{"concolic.between_runs_us", "us"},
	{"concolic.mispredicts", "count"},
	{"concolic.restarts", "count"},
	{"concolic.fallbacks", "count"},
	{"symbolic.shadow_evals", "count"},
	{"solver.calls", "count"},
	{"solver.solve_us_p50", "us"},
	{"solver.solve_us_p99", "us"},
	{"solver.work", "count"},
	{"solver.cache_hit_share", "fraction"},
	{"solver.sat_share", "fraction"},
	{"solver.slice_ms", "ms"},
	{"solver.cache_lookup_ms", "ms"},
	{"solver.solve_ms", "ms"},
	{"solver.verify_ms", "ms"},
	{"audit.pool_idle_share", "fraction"},
	{"corpus.open_ms", "ms"},
	{"corpus.hits", "count"},
	{"corpus.misses", "count"},
	{"corpus.stores", "count"},
	{"corpus.replay_cases", "count"},
	{"corpus.hit_ms_p50", "ms"},
	{"corpus.miss_ms_p50", "ms"},
	{"corpus.solvelog_entries", "count"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p99", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.store_hit_share", "fraction"},
	{"serve.rejected", "count"},
	{"serve.queue_depth_max", "count"},
	{"load.late_ms_p99", "ms"},
	{"obs.trace_overhead_share", "fraction"},
	{"failed_share", "fraction"},
	{"self.frontend_share", "fraction"},
	{"self.search_setup_share", "fraction"},
	{"self.concolic_run_share", "fraction"},
	{"self.concolic_between_share", "fraction"},
	{"self.solver_solve_share", "fraction"},
	{"self.search_finish_share", "fraction"},
	{"self.corpus_read_share", "fraction"},
	{"self.corpus_write_share", "fraction"},
	{"self.serve_job_share", "fraction"},
	{"self.idle_share", "fraction"},
	{"self.bench_share", "fraction"},
	{"self.unattributed_share", "fraction"},
}

// accountShares maps the self-time metrics to the account's layers.
var accountShares = map[string][]string{
	"self.frontend_share":         {"frontend"},
	"self.search_setup_share":     {"search.setup"},
	"self.concolic_run_share":     {"concolic.run"},
	"self.concolic_between_share": {"concolic.between"},
	"self.solver_solve_share":     {"solver.solve"},
	"self.search_finish_share":    {"search.finish", "audit.other"},
	"self.corpus_read_share":      {"corpus.read"},
	"self.corpus_write_share":     {"corpus.write"},
	"self.serve_job_share":        {"serve.job"},
	"self.idle_share":             {"idle"},
	"self.bench_share":            {"bench.check", "bench.edit"},
	"self.unattributed_share":     {"unattributed"},
}

func phase(p *obs.ProfileSnapshot, name string) obs.PhaseProfile {
	for _, ph := range p.Phases {
		if ph.Phase == name {
			return ph
		}
	}
	return obs.PhaseProfile{}
}

// layerMetrics derives the per-layer metrics of a traced measurement
// from its samples, the tracer's spans and counts, and the merged
// engine profile.  r.layer already holds the workload's direct timings.
func layerMetrics(r *result, tr *tracer, acct map[string]float64, wall time.Duration) map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.layer {
		m[k] = v
	}
	ops := float64(r.ops)
	per := func(n int64) float64 { return ratio(float64(n), ops) }
	nanosPer := func(name string) float64 { return ratio(float64(phase(&r.prof, name).Nanos)/1e6, ops) }

	tr.mu.Lock()
	c := tr.tally
	m["audit.searches"] = per(c.fnStarts - c.corpusHits)
	m["concolic.runs"] = per(c.runs)
	m["concolic.run_us_p50"] = percentile(tr.runUS, 50)
	m["concolic.run_us_p99"] = percentile(tr.runUS, 99)
	m["concolic.instrs_per_run"] = ratio(float64(c.steps), float64(c.runs))
	m["concolic.between_runs_us"] = median(tr.betweenUS)
	m["concolic.mispredicts"] = per(c.mispredicts)
	m["concolic.restarts"] = per(c.restarts)
	m["concolic.fallbacks"] = per(c.fallbacks)
	m["solver.calls"] = per(c.calls)
	m["solver.solve_us_p50"] = percentile(tr.solveUS, 50)
	m["solver.solve_us_p99"] = percentile(tr.solveUS, 99)
	m["solver.work"] = per(c.work)
	m["solver.cache_hit_share"] = ratio(float64(c.cacheHits), float64(c.calls))
	m["solver.sat_share"] = ratio(float64(c.sat), float64(c.verdicts))
	m["corpus.hits"] = per(c.corpusHits)
	m["corpus.misses"] = per(c.corpusMisses)
	m["corpus.stores"] = per(c.corpusStores)
	m["corpus.hit_ms_p50"] = median(tr.hitMS)
	m["corpus.miss_ms_p50"] = median(tr.missMS)
	tr.mu.Unlock()

	m["symbolic.shadow_evals"] = per(phase(&r.prof, obs.SpanShadow).Count)
	m["solver.slice_ms"] = nanosPer(obs.SpanSlice)
	m["solver.cache_lookup_ms"] = nanosPer(obs.SpanCacheLookup)
	m["solver.solve_ms"] = nanosPer(obs.SpanSolve)
	m["solver.verify_ms"] = nanosPer(obs.SpanVerify)

	for metric, layers := range accountShares {
		for _, l := range layers {
			m[metric] += acct[l] / wall.Seconds()
		}
	}
	return m
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

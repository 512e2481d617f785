package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"testing"
	"time"

	"dart"
	"dart/internal/audit"
	"dart/internal/minisip"
	"dart/internal/progs"
	"dart/internal/serve"
)

func sipAuditOf(t *testing.T, fns ...string) (*audit.Result, func(map[string]verdict) *checker) {
	t.Helper()
	p, _, err := compileSIP(minisip.SourceText())
	if err != nil {
		t.Fatal(err)
	}
	res := audit.Run(p.IR, audit.Options{Toplevels: fns, Seed: 7, MaxRuns: sipRuns})
	return res, func(want map[string]verdict) *checker {
		c := &checker{}
		checkAudit(c, p, want, res)
		return c
	}
}

func TestKnownAnswersPass(t *testing.T) {
	_, check := sipAuditOf(t, "parse_packet", "parse_packet_fixed", "list_sum", "uri_init")
	if c := check(minisipAnswers); c.failed != 0 || c.attempted != 4 {
		t.Fatalf("attempted %d, failed %d: %v", c.attempted, c.failed, c.notes)
	}
}

// A flipped expected verdict must show as a failed operation.
func TestFlippedVerdictFails(t *testing.T) {
	_, check := sipAuditOf(t, "parse_packet", "parse_packet_fixed")
	for fn, flip := range map[string]verdict{"parse_packet": survives, "parse_packet_fixed": crashes} {
		want := map[string]verdict{}
		for k, v := range minisipAnswers {
			want[k] = v
		}
		want[fn] = flip
		c := check(want)
		if c.failed != 1 || c.failedShare() == 0 {
			t.Errorf("%s flipped to %s: failed %d of %d", fn, flip, c.failed, c.attempted)
		}
	}
}

// A bug whose input vector no longer reproduces it must show as a
// failed operation.
func TestTamperedBugFails(t *testing.T) {
	res, check := sipAuditOf(t, "parse_packet")
	bugs := res.Entries[0].Report.Bugs
	if len(bugs) == 0 {
		t.Fatal("parse_packet: no bug to tamper with")
	}
	// A wrong framing magic makes parse_packet return -1 at once.
	bugs[0].Inputs["d0.magic"] = 0
	c := check(minisipAnswers)
	if c.failed != 1 || c.failedShare() == 0 {
		t.Fatalf("tampered bug: failed %d of %d", c.failed, c.attempted)
	}
}

// Every sip-reaudit iteration must miss the corpus for the edited
// functions and store them afresh; a re-audit without an edit must be
// caught by the same check.
func TestReauditEditMisses(t *testing.T) {
	inst, err := setupSIPReaudit(&benchEnv{rng: newRNG(3), work: t.TempDir()}, &checker{})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*sipReaudit)
	for i := 0; i < 3; i++ {
		r := newResult()
		if err := s.iterate(nil, r); err != nil {
			t.Fatal(err)
		}
		if r.chk.failed != 0 {
			t.Fatalf("iteration %d: %v", i, r.chk.notes)
		}
	}
	p, _, err := compileTimed(s.source())
	if err != nil {
		t.Fatal(err)
	}
	res := audit.Run(p.IR, s.options())
	if res.CorpusHits != res.Functions() {
		t.Fatalf("unedited re-audit: %d hits of %d", res.CorpusHits, res.Functions())
	}
	if checkEditMissed(res, []string{"list_sum"}) == nil {
		t.Fatal("a re-audit with no edit passed the miss check")
	}
}

// A report served for a repeated submission must be byte-identical to
// the first one.
func TestRepeatedReportMustMatch(t *testing.T) {
	p, _, err := compileTimed(progCases[1].src)
	if err != nil {
		t.Fatal(err)
	}
	j := &jobsMixed{reports: map[string][sha256.Size]byte{}, progs: make([]*dart.Program, len(progCases))}
	j.progs[1] = p
	rep, _ := json.Marshal(serve.JobReport{Functions: 1, OK: 1, Entries: []serve.JobEntry{
		{Function: "f", Status: "ok", Bugs: []serve.JobBug{}}}})
	spec := jobSpec{src: 1, seed: 5, runs: progJobRuns}
	first := &jobRec{spec: spec, id: "j1"}
	if err := j.checkJob(first, &jobEnvelope{State: "done", Report: rep}); err != nil {
		t.Fatal(err)
	}
	changed := bytes.Replace(rep, []byte(`"ok":1`), []byte(`"ok":1 `), 1)
	again := &jobRec{spec: spec, id: "j2", cached: true}
	if j.checkJob(again, &jobEnvelope{State: "done", Report: changed}) == nil {
		t.Fatal("a cached report that differs from the fresh one passed")
	}
}

// A stream's segments partition its span, so the lanes' layer times
// plus idle account for the traced pass.  SolverGate ends nearly every
// run in a solve, so every search layer shows.
func TestTracerAccountCloses(t *testing.T) {
	p, _, err := compileTimed(progs.SolverGate)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGateWitness(p); err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1)
	r := newResult()
	start := time.Now()
	for seed := int64(1); seed <= 4; seed++ {
		res := auditPass(p, audit.Options{Toplevels: []string{"gate"}, Seed: seed, MaxRuns: 300, Jobs: 1}, tr, r, time.Now(), 1000)
		checkAudit(&r.chk, p, map[string]verdict{"gate": aborts}, res)
	}
	wall := time.Since(start)
	acct := tr.account(wall)
	if u := acct["unattributed"]; u < 0 || u > 0.05*wall.Seconds() {
		t.Fatalf("unattributed %.4fs of %.4fs", u, wall.Seconds())
	}
	if acct["solver.solve"] <= 0 || acct["concolic.run"] <= 0 {
		t.Fatalf("account misses the search layers: %v", acct)
	}
	if r.chk.failed != 0 {
		t.Fatal(r.chk.notes)
	}
}

// Two audit workers feed the tracer at once.
func TestTracerConcurrentLanes(t *testing.T) {
	p, fns, err := compileSIP(minisip.SourceText())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(2)
	r := newResult()
	start := time.Now()
	auditPass(p, audit.Options{Toplevels: fns[:8], Seed: 1, MaxRuns: 200, Jobs: 2}, tr, r, start, sipAuditSLOms)
	wall := time.Since(start)
	if r.jobs != 8 || len(r.verdictMS) != 8 {
		t.Fatalf("%d jobs, %d verdicts for 8 functions", r.jobs, len(r.verdictMS))
	}
	acct := tr.account(wall)
	if u := acct["unattributed"]; u < 0 || u > 0.05*wall.Seconds() {
		t.Fatalf("unattributed %.4fs of %.4fs: %v", u, wall.Seconds(), acct)
	}
	if tr.fnStarts != 8 || tr.runs == 0 {
		t.Fatalf("tally: %+v", tr.tally)
	}
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dart"
	"dart/internal/minisip"
	"dart/internal/obs"
	"dart/internal/ops"
	"dart/internal/serve"
)

const (
	// jobsRate is the open loop's mean arrival rate in jobs per second,
	// a little under half of what the service sustains on two cores
	// (about 45 submissions per second at this mix).
	jobsRate = 20.0
	// jobsQueueDepth is deep enough that a slow spell of the machine
	// shows as queueing delay, not as rejected jobs.
	jobsQueueDepth = 1024
	// Fresh jobs audit ?lib=minisip at sipJobRuns or one of the small
	// progCases sources at progJobRuns (shares in the deck below).
	sipJobRuns  = 300
	progJobRuns = 50
	// Repeats copy a fresh submission between repeatMin and repeatMax
	// fresh jobs back exactly, so the result store answers them.
	repeatMin = 30
	repeatMax = 150
	// jobsSLOms is a job's latency limit, near the 90th percentile of
	// job_ms measured on a shared 2-vCPU VM.
	jobsSLOms = 200
)

func init() {
	register(workload{name: "jobs-mixed", lanes: jobsExecutors(), setup: setupJobs})
}

// jobsExecutors is the service's executor count, its default.
func jobsExecutors() int { return runtime.GOMAXPROCS(0) }

// jobSpec is one submission: a source (-1 = ?lib=minisip, otherwise an
// index into progCases), a seed and a run budget.
type jobSpec struct {
	src  int
	seed int64
	runs int
}

func (s jobSpec) key() string { return fmt.Sprintf("%d/%d/%d", s.src, s.seed, s.runs) }

// jobRec is one submission's record as the load generator saw it.  The
// fetcher checks each report as it arrives and keeps only its numbers.
type jobRec struct {
	spec            jobSpec
	due, sent, resp time.Time
	depth           int
	id              string
	cached          bool
	subErr          error // submission failed
	fetchErr        error // fetching the report failed
	checkErr        error // the report failed a check
	// From the report envelope (fresh jobs): executor time from pickup
	// to report, the queue wait inside it, and the report's totals.
	exec, wait           time.Duration
	runs, covered, total int
}

// jobEnvelope is the part of GET /jobs/{id} the benchmark reads.
type jobEnvelope struct {
	State          string               `json:"state"`
	StopReason     string               `json:"stop_reason"`
	Error          string               `json:"error"`
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Report         json.RawMessage      `json:"report"`
	Profile        *obs.ProfileSnapshot `json:"profile"`
}

type submitReply struct {
	ID         string `json:"id"`
	Cached     bool   `json:"cached"`
	QueueDepth int    `json:"queue_depth"`
}

// jobsMixed drives the job service over loopback HTTP as an open loop.
type jobsMixed struct {
	rng     *rand.Rand
	sip     *dart.Program
	progs   []*dart.Program
	svc     *serve.Service
	srv     *ops.Server
	client  *http.Client
	base    string
	traced  bool
	deck    []byte                       // kinds left in the current block of the mix
	fresh   []jobSpec                    // the last repeatMax fresh submissions, for repeats
	reports map[string][sha256.Size]byte // hash of the first report per submission
}

func setupJobs(b *benchEnv, chk *checker) (instance, error) {
	j := &jobsMixed{rng: b.rng, reports: map[string][sha256.Size]byte{}}
	var err error
	if j.sip, _, err = compileTimed(minisip.SourceText()); err != nil {
		return nil, err
	}
	for _, pc := range progCases {
		p, _, err := compileTimed(pc.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.name, err)
		}
		j.progs = append(j.progs, p)
		if pc.name == "solverGate" {
			chk.record(checkGateWitness(p))
		}
	}
	j.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
	if err := j.start(nil); err != nil {
		return nil, err
	}
	// Warm-up: one library job and a few small ones, closed loop.
	warm := []jobSpec{{-1, 1 + j.rng.Int63n(1e9), sipJobRuns}}
	for i := 0; i < 4; i++ {
		warm = append(warm, jobSpec{i, 1 + j.rng.Int63n(1e9), progJobRuns})
	}
	for _, s := range warm {
		rec := &jobRec{spec: s}
		j.submit(rec)
		if rec.subErr != nil {
			return nil, rec.subErr
		}
		j.finish(rec, nil)
		if rec.fetchErr != nil {
			return nil, rec.fetchErr
		}
		chk.record(rec.checkErr)
	}
	return j, nil
}

// start brings up a fresh service and its HTTP surface; sink is the
// service's observer (nil when untraced).  Repeats are drawn only from
// submissions the running service has seen, so its store can answer.
func (j *jobsMixed) start(sink obs.Sink) error {
	j.fresh = j.fresh[:0]
	cfg := serve.Config{
		QueueDepth: jobsQueueDepth,
		Executors:  jobsExecutors(),
		Libraries:  dart.BuiltinLibraries(),
	}
	if sink != nil {
		cfg.Sink = sink
	}
	j.svc = serve.New(cfg)
	j.srv = ops.NewServer(ops.Config{Addr: "127.0.0.1:0"})
	j.svc.RegisterOn(j.srv)
	if err := j.srv.Listen(); err != nil {
		j.svc.Drain(time.Second)
		return err
	}
	j.base = "http://" + j.srv.Addr()
	j.traced = sink != nil
	return nil
}

func (j *jobsMixed) stop() {
	j.svc.Drain(10 * time.Second)
	j.srv.Close()
	j.client.CloseIdleConnections()
}

func (j *jobsMixed) close() { j.stop() }

// next draws the next submission from a shuffled deck that holds the
// mix's exact shares, so every seed runs the same mix: a repeat of a
// recent fresh submission, a miniSIP job, or a small program.
func (j *jobsMixed) next() jobSpec {
	if len(j.deck) == 0 {
		j.deck = append(j.deck, deckRepeat...)
		j.deck = append(j.deck, deckFresh...)
		j.rng.Shuffle(len(j.deck), func(a, b int) { j.deck[a], j.deck[b] = j.deck[b], j.deck[a] })
	}
	kind := j.deck[0]
	j.deck = j.deck[1:]
	if n := len(j.fresh); kind == 'r' && n >= repeatMin {
		back := repeatMin + j.rng.Intn(repeatMax-repeatMin)
		if back > n {
			back = n
		}
		return j.fresh[n-back]
	}
	s := jobSpec{src: j.rng.Intn(len(progCases)), seed: 1 + j.rng.Int63n(1e9), runs: progJobRuns}
	if kind == 's' {
		s.src, s.runs = -1, sipJobRuns
	}
	if len(j.fresh) == repeatMax {
		j.fresh = append(j.fresh[:0], j.fresh[1:]...)
	}
	j.fresh = append(j.fresh, s)
	return s
}

// The deck of one block of 40 submissions: 10 repeats (25%), and of the
// 30 fresh ones 3 miniSIP jobs (10%).
var (
	deckRepeat = []byte("rrrrrrrrrr")
	deckFresh  = []byte("sss" + strings.Repeat("p", 27))
)

func (j *jobsMixed) submit(rec *jobRec) {
	q := url.Values{}
	q.Set("seed", strconv.FormatInt(rec.spec.seed, 10))
	q.Set("runs", strconv.Itoa(rec.spec.runs))
	body := ""
	if rec.spec.src < 0 {
		q.Set("lib", "minisip")
	} else {
		body = progCases[rec.spec.src].src
	}
	rec.sent = time.Now()
	resp, err := j.client.Post(j.base+"/jobs?"+q.Encode(), "text/plain", strings.NewReader(body))
	if err != nil {
		rec.subErr = err
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	rec.resp = time.Now()
	if err != nil {
		rec.subErr = err
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		rec.subErr = fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return
	}
	var rep submitReply
	if err := json.Unmarshal(b, &rep); err != nil {
		rec.subErr = fmt.Errorf("POST /jobs reply: %w", err)
		return
	}
	rec.id, rec.cached, rec.depth = rep.ID, rep.Cached, rep.QueueDepth
}

// fetch long-polls GET /jobs/{id} until the job is done.
func (j *jobsMixed) fetch(id string) (*jobEnvelope, error) {
	for {
		resp, err := j.client.Get(j.base + "/jobs/" + id + "?wait=60")
		if err != nil {
			return nil, err
		}
		var env jobEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("GET /jobs/%s: %w", id, err)
		}
		if env.State == string(serve.StateDone) {
			return &env, nil
		}
	}
}

// finish fetches one job's report, checks it and keeps its numbers in
// rec; the envelope is dropped.  A fresh job's engine profile is merged
// into prof when prof is non-nil.
func (j *jobsMixed) finish(rec *jobRec, prof *obs.ProfileSnapshot) {
	env, err := j.fetch(rec.id)
	if err != nil {
		rec.fetchErr = err
		return
	}
	rec.exec = time.Duration(env.ElapsedSeconds * float64(time.Second))
	rec.checkErr = j.checkJob(rec, env)
	if rec.cached {
		return
	}
	if env.Profile != nil {
		rec.wait = time.Duration(phase(env.Profile, obs.SpanJobQueueWait).Nanos)
		if prof != nil {
			prof.Merge(env.Profile)
		}
	}
	var rep serve.JobReport
	if json.Unmarshal(env.Report, &rep) == nil {
		rec.runs, rec.covered, rec.total = rep.TotalRuns, rep.CoverageCovered, rep.CoverageTotal
	}
}

// run drives one open-loop window and waits for every job of it.  The
// program's CPU time is the process's over that span less the two load
// goroutines' own threads (submitting, and fetching and checking the
// reports); the HTTP client's transport goroutines stay in.  Reference
// samples are taken beside the open loop.
func (j *jobsMixed) run(deadline time.Time, tr *tracer, r *result) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if (tr != nil) != j.traced {
		j.stop()
		var sink obs.Sink
		if tr != nil {
			sink = tr
		}
		if err := j.start(sink); err != nil {
			return err
		}
	}
	// The schedule: rate x window arrivals at independent uniform times
	// (a Poisson process given its count).
	window := time.Until(deadline)
	n := int(jobsRate * window.Seconds())
	offsets := make([]time.Duration, n)
	specs := make([]jobSpec, n)
	for i := range offsets {
		offsets[i] = time.Duration(j.rng.Float64() * float64(window))
		specs[i] = j.next()
	}
	sort.Slice(offsets, func(a, b int) bool { return offsets[a] < offsets[b] })

	recs := make([]*jobRec, len(specs))
	done := make(chan *jobRec, len(specs)) // one slot per submission: the sender never blocks
	var wg sync.WaitGroup
	var fetchCPU time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c := threadCPU()
		for rec := range done {
			j.finish(rec, &r.prof)
		}
		fetchCPU = threadCPU() - c
	}()
	calStop := make(chan struct{})
	var calWG sync.WaitGroup
	calWG.Add(1)
	go func() {
		defer calWG.Done()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-calStop:
				return
			case <-tick.C:
				r.cal.sample()
			}
		}
	}()
	tr.beginPass()
	c, submitCPU := processCPU(), threadCPU()
	start := time.Now()
	for i, s := range specs {
		rec := &jobRec{spec: s, due: start.Add(offsets[i])}
		recs[i] = rec
		time.Sleep(time.Until(rec.due))
		j.submit(rec)
		if rec.subErr == nil {
			done <- rec
		}
	}
	close(done)
	submitCPU = threadCPU() - submitCPU
	wg.Wait()
	close(calStop)
	calWG.Wait()
	r.cpu += processCPU() - c - submitCPU - fetchCPU
	tr.settle(10 * time.Second)
	tr.endPass()

	t := time.Now()
	j.collect(recs, r)
	tr.timeMain("bench.check", t)
	return nil
}

// collect folds every job's record into the result.
func (j *jobsMixed) collect(recs []*jobRec, r *result) {
	var submitMS, lateMS, waitMS, execMS, sipExecS []float64
	cached, accepted, depthMax := 0, 0, 0
	for _, rec := range recs {
		r.jobs++
		lateMS = append(lateMS, ms(rec.sent.Sub(rec.due)))
		if rec.subErr != nil {
			r.sloMiss++
			r.chk.record(rec.subErr)
			continue
		}
		accepted++
		if rec.depth > depthMax {
			depthMax = rec.depth
		}
		submitMS = append(submitMS, ms(rec.resp.Sub(rec.sent)))
		if rec.fetchErr != nil {
			r.sloMiss++
			r.chk.record(rec.fetchErr)
			continue
		}
		jobMS := ms(rec.resp.Sub(rec.due) + rec.exec)
		r.jobMS = append(r.jobMS, jobMS)
		if rec.checkErr != nil || jobMS > jobsSLOms {
			r.sloMiss++
		}
		r.chk.record(rec.checkErr)
		r.requests++
		if rec.cached {
			cached++
			continue
		}
		exec := rec.exec - rec.wait
		waitMS = append(waitMS, ms(rec.wait))
		execMS = append(execMS, ms(exec))
		r.verdictMS = append(r.verdictMS, ms(exec))
		if rec.spec.src < 0 {
			sipExecS = append(sipExecS, exec.Seconds())
		}
		r.runs += int64(rec.runs)
		r.covered += int64(rec.covered)
		r.total += int64(rec.total)
		r.ops++
	}
	r.auditS = append(r.auditS, sipExecS...)
	r.layer["serve.submit_ms_p50"] = percentile(submitMS, 50)
	r.layer["serve.submit_ms_p99"] = percentile(submitMS, 99)
	r.layer["serve.queue_wait_ms_p50"] = percentile(waitMS, 50)
	r.layer["serve.queue_wait_ms_p99"] = percentile(waitMS, 99)
	r.layer["serve.exec_ms_p50"] = median(execMS)
	r.layer["serve.store_hit_share"] = ratio(float64(cached), float64(accepted))
	r.layer["serve.rejected"] = float64(len(recs) - accepted)
	r.layer["serve.queue_depth_max"] = float64(depthMax)
	r.layer["load.late_ms_p99"] = percentile(lateMS, 99)
}

// checkJob checks one finished job: a complete report whose verdicts
// match the known answers for its source, whose bugs replay, and whose
// bytes equal every other report of the same submission.
func (j *jobsMixed) checkJob(rec *jobRec, env *jobEnvelope) error {
	if env.StopReason != "" || env.Error != "" {
		return fmt.Errorf("job %s: stopped (%s) %s", rec.id, env.StopReason, env.Error)
	}
	key, sum := rec.spec.key(), sha256.Sum256(env.Report)
	if first, ok := j.reports[key]; ok {
		if first != sum {
			return fmt.Errorf("job %s (cached %t): report differs from the first report of the same submission", rec.id, rec.cached)
		}
	} else {
		j.reports[key] = sum
	}
	var rep serve.JobReport
	if err := json.Unmarshal(env.Report, &rep); err != nil {
		return fmt.Errorf("job %s: report: %w", rec.id, err)
	}
	p, want := j.sip, minisipAnswers
	if rec.spec.src >= 0 {
		p, want = j.progs[rec.spec.src], progCases[rec.spec.src].want
	}
	if len(rep.Entries) != len(want) {
		return fmt.Errorf("job %s: %d entries, want %d", rec.id, len(rep.Entries), len(want))
	}
	for _, e := range rep.Entries {
		bugs := make([]bugRec, len(e.Bugs))
		for i, b := range e.Bugs {
			bugs[i] = bugRec{kind: b.Kind, inputs: b.Inputs}
		}
		if err := checkVerdict(want, e.Function, e.Status, bugs); err != nil {
			return fmt.Errorf("job %s: %w", rec.id, err)
		}
		if err := checkReplays(p, e.Function, 1, bugs); err != nil {
			return fmt.Errorf("job %s: %w", rec.id, err)
		}
	}
	return nil
}

func (j *jobsMixed) layerProbe(r *result) error { return probeFrontEnd(r, minisip.SourceText(), 10) }

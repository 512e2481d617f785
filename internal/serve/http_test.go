package serve

// HTTP-surface tests over a real (httptest) server: the full
// admission-to-result path, every backpressure status code (429, 503,
// 413), the readiness probe, and the rejection counters on /metrics.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dart/internal/ops"
	"dart/internal/progs"
)

// newHTTPService wires a job service onto an ops server exactly as
// cmd/dart's service mode does, served by httptest.
func newHTTPService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	srv := ops.NewServer(ops.Config{Mode: "serve"})
	cfg.Sink = srv.Sink()
	svc := New(cfg)
	svc.RegisterOn(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Drain(time.Second)
	})
	return svc, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestHTTPSubmitAndFetch(t *testing.T) {
	_, ts := newHTTPService(t, Config{})

	resp, body := post(t, ts.URL+"/jobs?runs=200", progs.Section21)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d\n%s", resp.StatusCode, body)
	}
	var sub struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	if sub.ID == "" || sub.Cached {
		t.Fatalf("submit response: %+v", sub)
	}

	var env struct {
		State          string  `json:"state"`
		Cached         bool    `json:"cached"`
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		Report         *struct {
			Buggy   int `json:"buggy"`
			Entries []struct {
				Function string `json:"function"`
				Bugs     []struct {
					Inputs map[string]int64 `json:"inputs"`
				} `json:"bugs"`
			} `json:"entries"`
		} `json:"report"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/jobs/"+sub.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d\n%s", sub.ID, resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("envelope: %v\n%s", err, body)
		}
		if env.State == "done" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if env.State != "done" || env.Report == nil || env.Report.Buggy != 1 {
		t.Fatalf("final envelope:\n%s", body)
	}
	// The paper's bug with its replayable input, end to end over HTTP.
	found := false
	for _, e := range env.Report.Entries {
		if e.Function == "h" && len(e.Bugs) == 1 && e.Bugs[0].Inputs["d0.x"] == 10 {
			found = true
		}
	}
	if !found {
		t.Errorf("Section 2.1 bug missing from the served report:\n%s", body)
	}

	// The identical resubmission answers 200 + cached from the store.
	resp, body = post(t, ts.URL+"/jobs?runs=200", progs.Section21)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST: %d\n%s", resp.StatusCode, body)
	}
	var cachedSub struct {
		Cached bool   `json:"cached"`
		State  string `json:"state"`
	}
	if err := json.Unmarshal([]byte(body), &cachedSub); err != nil {
		t.Fatal(err)
	}
	if !cachedSub.Cached || cachedSub.State != "done" {
		t.Errorf("cached submit response: %+v", cachedSub)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	g := newGate()
	svc, ts := newHTTPService(t, Config{Executors: 1, QueueDepth: 1})
	defer g.release()
	svc.beforeRun = func(j *Job) { g.hold(j) }

	// Fill the single executor and the single queue slot, then the next
	// submission must shed with 429 + Retry-After.
	deadline := time.Now().Add(10 * time.Second)
	var got429 bool
	var resp *http.Response
	var body string
	for i := 0; !got429; i++ {
		resp, body = post(t, fmt.Sprintf("%s/jobs?seed=%d&runs=50", ts.URL, i+1), progs.Section21)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("POST %d: %d\n%s", i, resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	// Saturation flips readiness to 503 with a reason.
	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "queue saturated") {
		t.Errorf("/readyz while saturated: %d %q", resp.StatusCode, body)
	}
	// Liveness stays green: the process is healthy, just busy.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while saturated: %d", resp.StatusCode)
	}

	// The shed shows up in the Prometheus exposition.
	_, metrics := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "dart_jobs_rejected_total") {
		t.Errorf("/metrics missing dart_jobs_rejected_total:\n%.600s", metrics)
	}
	if strings.Contains(metrics, "dart_jobs_rejected_total 0\n") {
		t.Errorf("rejected counter still zero after a 429:\n%.600s", metrics)
	}
	if !strings.Contains(metrics, "dart_jobs_queue_capacity 1") {
		t.Errorf("service gauges missing from /metrics:\n%.600s", metrics)
	}
}

func TestHTTPBodyCap413(t *testing.T) {
	_, ts := newHTTPService(t, Config{MaxBody: 64})
	resp, body := post(t, ts.URL+"/jobs", strings.Repeat("x", 1024))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST: %d\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "64") {
		t.Errorf("413 body does not state the cap: %q", body)
	}
	// Under the cap still works (it fails compile, but is read in full).
	resp, _ = post(t, ts.URL+"/jobs", "int f(")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("under-cap bad program: %d, want 400", resp.StatusCode)
	}
}

func TestHTTPDraining503(t *testing.T) {
	g := newGate()
	svc, ts := newHTTPService(t, Config{Executors: 1})
	svc.beforeRun = func(j *Job) { g.hold(j) }

	if resp, _ := post(t, ts.URL+"/jobs?runs=50", progs.Section21); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed submission: %d", resp.StatusCode)
	}
	drained := make(chan struct{})
	go func() { svc.Drain(50 * time.Millisecond); close(drained) }()
	// Draining flips on immediately; the drain itself finishes when the
	// kill checkpoint frees the gated job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ready, why := svc.Ready(); !ready && why == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service never entered draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, _ := post(t, ts.URL+"/jobs", progs.Section21)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz while draining: %d %q", resp.StatusCode, body)
	}
	<-drained
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newHTTPService(t, Config{Libraries: map[string]string{"sec21": progs.Section21}})

	cases := []struct {
		name, url, body string
	}{
		{"bad seed", "/jobs?seed=zzz", progs.Section21},
		{"bad runs", "/jobs?runs=many", progs.Section21},
		{"bad depth", "/jobs?depth=-x", progs.Section21},
		{"bad random", "/jobs?random=perhaps", progs.Section21},
		{"bad fn_timeout", "/jobs?fn_timeout=later", progs.Section21},
		{"unknown lib", "/jobs?lib=nope", ""},
		{"empty submission", "/jobs", ""},
		{"compile failure", "/jobs", "int f( {"},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d\n%s", tc.name, resp.StatusCode, body)
		}
	}

	resp, _ := get(t, ts.URL+"/jobs/j999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /jobs: %d, want 405", dresp.StatusCode)
	}
}

func TestHTTPListAndLibrary(t *testing.T) {
	_, ts := newHTTPService(t, Config{Libraries: map[string]string{"sec21": progs.Section21}})

	resp, body := post(t, ts.URL+"/jobs?lib=sec21&runs=100", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("lib submit: %d\n%s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.Unmarshal([]byte(body), &sub)

	resp, body = get(t, ts.URL+"/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs: %d", resp.StatusCode)
	}
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
		QueueCap int `json:"queue_capacity"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("list: %v\n%s", err, body)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID || list.QueueCap != DefaultQueueDepth {
		t.Errorf("list response:\n%s", body)
	}
}

// TestHTTPEventsCarryJobTags: the /events ring serves job-tagged
// lifecycle events, so one NDJSON stream multiplexes every job.
func TestHTTPEventsCarryJobTags(t *testing.T) {
	_, ts := newHTTPService(t, Config{})

	resp, body := post(t, ts.URL+"/jobs?runs=100", progs.Section21)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.Unmarshal([]byte(body), &sub)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, b := get(t, ts.URL+"/jobs/"+sub.ID); strings.Contains(b, `"state": "done"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, events := get(t, ts.URL+"/events")
	var sawQueued, sawEnd, sawSearch bool
	for _, line := range strings.Split(events, "\n") {
		if line == "" {
			continue
		}
		var ev struct {
			Kind string `json:"ev"`
			Job  string `json:"job"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue
		}
		if ev.Job != sub.ID {
			continue
		}
		switch ev.Kind {
		case "job-queued":
			sawQueued = true
		case "job-end":
			sawEnd = true
		case "run-start", "audit-fn-start":
			sawSearch = true
		}
	}
	if !sawQueued || !sawEnd {
		t.Errorf("lifecycle events missing from /events (queued=%v end=%v):\n%.600s", sawQueued, sawEnd, events)
	}
	if !sawSearch {
		t.Errorf("per-search events not tagged with the job id:\n%.600s", events)
	}
}

// TestHTTPMalformedStructIs400 submits the one-byte miniSIP corruption
// that once sent the parser into an unbounded loop: the submission must
// cost a 400 carrying the parse position, and the service must keep
// serving afterwards.
func TestHTTPMalformedStructIs400(t *testing.T) {
	_, ts := newHTTPService(t, Config{})
	src := "struct s { int a; 1 = x */ int b; };\nint f(int x) { return x; }\n"
	resp, body := post(t, ts.URL+"/jobs", src)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed struct: %d, want 400\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(body, "1:19") {
		t.Errorf("400 body does not carry the parse position 1:19: %q", body)
	}
	if resp, body := post(t, ts.URL+"/jobs?runs=50", progs.Section21); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("service did not stay up: POST /jobs after the bad submission: %d\n%s", resp.StatusCode, body)
	}
}

// TestHTTPDeepNestingAnsweredPromptly submits 20,000 nested
// conditionals: Submit compiles on the request path, so a front end
// that is quadratic in nesting depth would stall the request.  The job
// itself runs one random-testing run, which costs one pass over the
// conditionals.
func TestHTTPDeepNestingAnsweredPromptly(t *testing.T) {
	_, ts := newHTTPService(t, Config{})
	const depth = 20000
	src := "int f(int x) {\n" + strings.Repeat("if (x) {", depth) + strings.Repeat("}", depth) + "\nreturn 0;\n}\n"
	start := time.Now()
	resp, body := post(t, ts.URL+"/jobs?runs=1&random=true", src)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deep nesting: %d, want 202\n%s", resp.StatusCode, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("POST /jobs took %v, want under 5s", d)
	}
}

package dart

// Golden-trace test: the NDJSON trace of a fixed-seed search is part of
// the tool's observable contract — events carry only deterministic
// payloads, so the byte stream must reproduce exactly.  Regenerate with
//
//	go test -run TestTraceGolden -update .

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dart/internal/progs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCase is one fixed-seed search pinned byte for byte.  With
// signature set the golden file holds the NDJSON trace followed by the
// report's EngineSignature (profile and explain collected, so their
// per-site counters are pinned too).
type goldenCase struct {
	name      string
	src       string
	opts      Options
	random    bool
	signature bool
	// events are trace event kinds the case exists to pin; each must
	// appear at least once.
	events []string
}

var goldenCases = []goldenCase{
	{
		// The Sec. 2.1 introductory example.
		name: "trace_e1intro.ndjson",
		src:  progs.Section21,
		opts: Options{Toplevel: "h", MaxRuns: 50, Seed: 1, StopAtFirstBug: true},
	},
	{
		// Classic DFS stack search through restarts and mispredictions.
		name: "trace_foobar_dfs.golden",
		src:  progs.Foobar,
		opts: Options{Toplevel: "foobar", MaxRuns: 40, Seed: 1,
			CollectProfile: true, CollectExplain: true},
		signature: true,
		events:    []string{"restart", "mispredict", "bug-found"},
	},
	{
		// The sequential frontier loop.
		name: "trace_clusters_bfs.golden",
		src:  progs.Clusters,
		opts: Options{Toplevel: "clusters", Seed: 1, Strategy: BFS, Workers: 1,
			CollectProfile: true, CollectExplain: true},
		signature: true,
		events:    []string{"branch-flip", "solver-verdict", "bug-found"},
	},
	{
		// The random-testing baseline.
		name: "trace_poke_random.golden",
		src:  progs.StraightLineDeref,
		opts: Options{Toplevel: "poke", MaxRuns: 20, Seed: 1,
			CollectProfile: true, CollectExplain: true},
		random:    true,
		signature: true,
		events:    []string{"bug-found"},
	},
}

// traceGolden runs c and returns its golden bytes.
func traceGolden(t *testing.T, c goldenCase) []byte {
	t.Helper()
	prog, err := Compile(c.src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o := c.opts
	o.Observer = NewNDJSONSink(&buf)
	search := Run
	if c.random {
		search = RandomTest
	}
	rep, err := search(prog, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.signature {
		buf.WriteString("--- signature ---\n")
		buf.WriteString(rep.EngineSignature(prog.IR))
	}
	return buf.Bytes()
}

func TestTraceGoldenE1Intro(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(strings.TrimSuffix(strings.TrimSuffix(c.name, ".golden"), ".ndjson"), func(t *testing.T) {
			got := traceGolden(t, c)
			for _, kind := range c.events {
				if !bytes.Contains(got, []byte(`"ev":"`+kind+`"`)) {
					t.Errorf("trace has no %s event", kind)
				}
			}
			golden := filepath.Join("testdata", c.name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trace diverged from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

func TestTraceReplayByteIdentical(t *testing.T) {
	for _, c := range goldenCases {
		a, b := traceGolden(t, c), traceGolden(t, c)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same program + same seed must trace byte-identically\nfirst:\n%s\nsecond:\n%s", c.name, a, b)
		}
	}
}

package dart

// Portable-name boundary gate.  Inside a search the input vector is
// dense over symbolic variable ids; names are rendered only where inputs
// leave the search: bug reports, run logs and the corpus suites
// distilled from them, the persistent solve log, and replay.  This test
// holds those names to the spelling corpora on disk already use, with
// testdata/portable_corpus: two corpora written by the string-keyed
// engine that preceded the dense vectors (one over four miniSIP
// functions, one over a probe program with an extern global, an array
// field and an external function).  Both must still warm-hit entry for
// entry, and a cold re-search of every function must answer every solve
// from the old solve log and rewrite each entry byte for byte.

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dart/internal/audit"
	"dart/internal/corpus"
	"dart/internal/minisip"
)

// probeBoundarySrc exercises the key spellings miniSIP does not: an
// extern global (g:), an array field ([i]) and an external function
// (ext:).
const probeBoundarySrc = `struct pkt { int len; char buf[4]; struct pkt *next; };
extern int limit;
extern int sensor();
int probe(struct pkt *p, int k) {
    int s = sensor();
    if (p == NULL) return 0;
    if (p->buf[2] == 'x' && p->len > limit) {
        if (s == k + 7) abort();
    }
    return 1;
}
`

// portableKey is the input-name grammar: a root — toplevel argument
// d<depth>.<param>, extern global g:<name>, or external call
// ext:<fn>#<n> — then field, dereference and index steps.
var portableKey = regexp.MustCompile(`^(d[0-9]+\.[A-Za-z_][A-Za-z0-9_]*|g:[A-Za-z_][A-Za-z0-9_]*|ext:[A-Za-z_][A-Za-z0-9_]*#[0-9]+)(\.\*|\.[A-Za-z_][A-Za-z0-9_]*|\[[0-9]+\])*$`)

// copyTree copies the corpus fixture at src into a fresh directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestPortableInputBoundary(t *testing.T) {
	ir, sem, err := minisip.Compile()
	if err != nil {
		t.Fatal(err)
	}
	probe, err := Compile(probeBoundarySrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		prog *Program
		fns  []string
		// spellings are the key fragments the bug inputs must show.
		spellings []string
	}{
		{"minisip", &Program{IR: ir, Sem: sem},
			[]string{"header_find", "list_get", "msg_from_port", "uri_equal"},
			[]string{"d0.", ".*", ".next"}},
		{"probe", probe, []string{"probe"},
			[]string{"d0.k", "g:limit", "ext:sensor#0", "d0.p.*.buf[2]", "d0.p.*.len"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyTree(t, filepath.Join("testdata", "portable_corpus", tc.name))
			// The options the fixture corpora were written with.
			auditWith := func() *audit.Result {
				c, err := corpus.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return audit.Run(tc.prog.IR, audit.Options{Toplevels: tc.fns, Seed: 11, MaxRuns: 100, Corpus: c, Jobs: 1})
			}

			// Warm: every entry replays its suite and bug fixtures under
			// today's key spelling.
			if res := auditWith(); res.CorpusHits != len(tc.fns) {
				for _, e := range res.Entries {
					t.Logf("%s: cached=%v status=%s", e.Function, e.CachedByCorpus, e.Status)
				}
				t.Fatalf("warm audit: %d corpus hits, want %d", res.CorpusHits, len(tc.fns))
			}

			// Cold: drop the entries, keep the solve log, and search again.
			old := map[string][]byte{}
			for _, fn := range tc.fns {
				path := filepath.Join(dir, "fn", fn+".json")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				old[fn] = b
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			}
			logBefore, err := os.ReadFile(filepath.Join(dir, "solve.log"))
			if err != nil {
				t.Fatal(err)
			}
			res := auditWith()
			var keys []string
			for _, e := range res.Entries {
				rep := e.Report
				if e.CachedByCorpus || rep == nil {
					t.Fatalf("%s: cached=%v report=%v, want a fresh search", e.Function, e.CachedByCorpus, rep != nil)
				}
				if rep.SolveCacheDiskHits == 0 || rep.SolveCacheMisses != 0 {
					t.Errorf("%s: %d solve-log hits, %d misses; want every solve answered by the old log",
						e.Function, rep.SolveCacheDiskHits, rep.SolveCacheMisses)
				}
				if len(rep.Bugs) == 0 || len(rep.RunLog) == 0 {
					t.Fatalf("%s: %d bugs, %d run-log records", e.Function, len(rep.Bugs), len(rep.RunLog))
				}
				for _, b := range rep.Bugs {
					rerr, err := Replay(tc.prog, Options{Toplevel: e.Function}, b.Inputs)
					if err != nil || rerr == nil || rerr.Outcome != b.Kind || rerr.Msg != b.Msg {
						t.Errorf("%s: bug %s does not replay: %v %v", e.Function, b, rerr, err)
					}
					for k := range b.Inputs {
						keys = append(keys, k)
					}
				}
				for _, r := range rep.RunLog {
					for k := range r.Inputs {
						keys = append(keys, k)
					}
				}
				if got, err := os.ReadFile(filepath.Join(dir, "fn", e.Function+".json")); err != nil || !bytes.Equal(got, old[e.Function]) {
					t.Errorf("%s: re-searched entry differs from the fixture's (err %v)", e.Function, err)
				}
			}
			if logAfter, err := os.ReadFile(filepath.Join(dir, "solve.log")); err != nil || !bytes.Equal(logAfter, logBefore) {
				t.Errorf("solve log changed: the re-search solved something the old log did not hold (err %v)", err)
			}
			for _, k := range keys {
				if !portableKey.MatchString(k) {
					t.Errorf("input key %q is not a portable input name", k)
				}
			}
			all := strings.Join(keys, " ")
			for _, s := range tc.spellings {
				if !strings.Contains(all, s) {
					t.Errorf("no input key contains %q in %v", s, keys)
				}
			}
		})
	}
}

// TestPortableKeyGrammar pins the grammar the boundary test checks keys
// against.
func TestPortableKeyGrammar(t *testing.T) {
	good := []string{"d0.x", "d1.arg0", "g:config", "ext:sensor#3", "d0.m.*.from.*.port", "d0.p.*.buf[2]"}
	bad := []string{"x", "d0", "d0.p*", "g:", "ext:sensor", "d0.p.[1]", "0"}
	for _, k := range good {
		if !portableKey.MatchString(k) {
			t.Errorf("%q rejected", k)
		}
	}
	for _, k := range bad {
		if portableKey.MatchString(k) {
			t.Errorf("%q accepted", k)
		}
	}
}

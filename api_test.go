package dart

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dart/internal/progen"
	"dart/internal/progs"
	"dart/internal/rng"
)

func TestCompileErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{"int f( {", "parse:"},
		{"int f() { return g; }", "check:"},
		{"int f() { goto x; }", "parse:"},
		// A struct member that consumes no token once looped forever.
		{"struct s { int a; 1 = x */ int b; };\nint f(int x) { return x; }\n", "parse: 1:19"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Compile(%q) error = %v, want %q", c.src, err, c.frag)
		}
	}
}

func TestFunctionsList(t *testing.T) {
	prog := compileT(t, progs.Section21)
	fns := Functions(prog)
	want := []string{"f", "h"}
	if len(fns) != 2 || fns[0] != want[0] || fns[1] != want[1] {
		t.Errorf("Functions = %v, want %v", fns, want)
	}
}

func TestExtractInterfacePublic(t *testing.T) {
	prog := compileT(t, progs.ExternalEnv)
	in, err := ExtractInterface(prog, "watch")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ExternFuncs) != 1 || in.ExternFuncs[0].Name != "getmsg" {
		t.Errorf("extern funcs: %+v", in.ExternFuncs)
	}
	if len(in.ExternVars) != 1 || in.ExternVars[0].Name != "threshold" {
		t.Errorf("extern vars: %+v", in.ExternVars)
	}
}

func TestReplayHandCraftedInputs(t *testing.T) {
	prog := compileT(t, progs.Section21)
	// The known bug-triggering vector.
	rerr, err := Replay(prog, Options{Toplevel: "h"}, map[string]int64{
		"d0.x": 10, "d0.y": 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rerr == nil || rerr.Outcome != Aborted {
		t.Fatalf("replay of the attack vector: %v", rerr)
	}
	// A benign vector terminates normally.
	rerr, err = Replay(prog, Options{Toplevel: "h"}, map[string]int64{
		"d0.x": 1, "d0.y": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatalf("benign vector crashed: %v", rerr)
	}
}

func TestReplayMissingInputs(t *testing.T) {
	prog := compileT(t, progs.Section21)
	if _, err := Replay(prog, Options{Toplevel: "h"}, map[string]int64{"d0.x": 1}); err == nil {
		t.Error("replay with a missing input should error")
	}
}

// TestOptimizerPreservesSearchResults: the IR optimizer must not change
// what the directed search finds — same bug kinds at the same source
// positions on the whole fixture corpus and a batch of random programs.
func TestOptimizerPreservesSearchResults(t *testing.T) {
	fixtures := map[string]struct {
		src string
		fn  string
	}{
		"Section21":    {progs.Section21, "h"},
		"Section24":    {progs.Section24, "f"},
		"Section25":    {progs.Section25Cast, "bar"},
		"ACController": {progs.ACController, "ac_controller"},
		"DivByZero":    {progs.DivByZero, "quotient"},
		"NullChain":    {progs.NullChain, "walk"},
		"Filter":       {progs.Filter, "entry"},
	}
	for name, fx := range fixtures {
		t.Run(name, func(t *testing.T) {
			compareOptimized(t, fx.src, fx.fn, 1)
		})
	}
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			src := progen.Program(rng.New(seed), progen.Default)
			compareOptimized(t, src, progen.Toplevel, seed)
		}
	})
}

func compareOptimized(t *testing.T, src, fn string, seed int64) {
	t.Helper()
	opt, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := CompileWith(src, CompileConfig{DisableOptimizer: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Toplevel: fn, MaxRuns: 80, Seed: seed, MaxSteps: 100000}
	a, err := Run(opt, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bugSet(a) != bugSet(b) {
		t.Errorf("bug sets differ:\noptimized: %v\nraw:       %v", a.Bugs, b.Bugs)
	}
}

func bugSet(r *Report) string {
	var sigs []string
	for _, b := range r.Bugs {
		sigs = append(sigs, fmt.Sprintf("%v@%v:%s", b.Kind, b.Pos, b.Msg))
	}
	sort.Strings(sigs)
	return strings.Join(sigs, "|")
}

func TestOptimizerShrinksPrograms(t *testing.T) {
	opt, _ := Compile(progs.ACController)
	raw, _ := CompileWith(progs.ACController, CompileConfig{DisableOptimizer: true})
	optLen, rawLen := 0, 0
	for _, name := range opt.IR.FuncOrder {
		optLen += len(opt.IR.Funcs[name].Code)
	}
	for _, name := range raw.IR.FuncOrder {
		rawLen += len(raw.IR.Funcs[name].Code)
	}
	if optLen > rawLen {
		t.Errorf("optimizer grew the program: %d vs %d", optLen, rawLen)
	}
	t.Logf("instructions: %d optimized vs %d raw", optLen, rawLen)
}

func TestOutcomeNames(t *testing.T) {
	if Aborted.String() != "abort" || Crashed.String() != "crash" || StepLimit.String() != "step-limit" {
		t.Error("outcome names changed; CLI output depends on them")
	}
}

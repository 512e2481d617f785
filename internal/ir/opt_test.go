package ir

import (
	"strings"
	"testing"
	"time"
)

func optimized(t *testing.T, src, fn string) *Func {
	t.Helper()
	prog := compile(t, src)
	Optimize(prog)
	f, ok := prog.Lookup(fn)
	if !ok {
		t.Fatalf("no function %s", fn)
	}
	return f
}

func TestConstantFolding(t *testing.T) {
	f := optimized(t, `int f(int x) { return x + (2 * 3 + 4 - 1); }`, "f")
	out := Disasm(f)
	if !strings.Contains(out, "+ 9") {
		t.Errorf("constant expression not folded:\n%s", out)
	}
}

func TestIdentityFolding(t *testing.T) {
	cases := []struct{ src, wantAbsent string }{
		{`int f(int x) { return x + 0; }`, "+ 0"},
		{`int f(int x) { return x * 1; }`, "* 1"},
		{`int f(int x) { return 1 * x; }`, "1 *"},
		{`int f(int x) { return x - 0; }`, "- 0"},
	}
	for _, c := range cases {
		f := optimized(t, c.src, "f")
		if out := Disasm(f); strings.Contains(out, c.wantAbsent) {
			t.Errorf("%q: identity not folded:\n%s", c.src, out)
		}
	}
}

func TestMulZeroFolds(t *testing.T) {
	f := optimized(t, `int f(int x) { return x * 0; }`, "f")
	if out := Disasm(f); !strings.Contains(out, "ret 0") {
		t.Errorf("x*0 not folded to 0:\n%s", out)
	}
}

func TestDivByZeroPreserved(t *testing.T) {
	// 1/0 must NOT fold away: the runtime fault is observable behaviour.
	f := optimized(t, `int f() { return 1 / 0; }`, "f")
	if out := Disasm(f); !strings.Contains(out, "/") {
		t.Errorf("division by constant zero was folded away:\n%s", out)
	}
}

func TestConstantBranchElimination(t *testing.T) {
	f := optimized(t, `
int f(int x) {
    if (1) return x;
    return -1;
}
`, "f")
	for _, ins := range f.Code {
		if _, ok := ins.(*IfGoto); ok {
			t.Fatalf("constant conditional survived:\n%s", Disasm(f))
		}
	}
	// The dead return -1 must be gone.
	if out := Disasm(f); strings.Contains(out, "ret -1") {
		t.Errorf("unreachable code survived:\n%s", out)
	}
}

func TestFalseBranchElimination(t *testing.T) {
	f := optimized(t, `
int f(int x) {
    if (2 > 5) return -1;
    return x;
}
`, "f")
	for _, ins := range f.Code {
		if _, ok := ins.(*IfGoto); ok {
			t.Fatalf("constant conditional survived:\n%s", Disasm(f))
		}
	}
}

func TestSiteRenumbering(t *testing.T) {
	// Of the four source conditionals: if(0) folds away, x>2 survives,
	// if(1) folds to an unconditional return making x<-2 unreachable —
	// so exactly two sites remain, renumbered densely.
	prog := compile(t, `
int f(int x) {
    if (0) return 1;
    if (x > 2) return 2;
    if (x == 7) return 3;
    if (1) return 9;
    if (x < -2) return 4;
    return 0;
}
`)
	Optimize(prog)
	if prog.NumSites != 2 {
		t.Errorf("NumSites = %d, want 2 after folding", prog.NumSites)
	}
	sites := map[int]bool{}
	for _, ins := range prog.Funcs["f"].Code {
		if br, ok := ins.(*IfGoto); ok {
			sites[br.Site] = true
		}
	}
	if !sites[0] || !sites[1] || len(sites) != 2 {
		t.Errorf("sites not dense: %v", sites)
	}
}

func TestJumpTargetsValidAfterOpt(t *testing.T) {
	prog := compile(t, `
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i == 2) continue;
        if (1) s += i;
        if (0) s -= 100;
        s += 0;
    }
    while (0) { s = 9; }
    do { s += 1 * 1; } while (0 > 1);
    return s;
}
`)
	Optimize(prog)
	f := prog.Funcs["f"]
	for pc, ins := range f.Code {
		var target int
		switch ins := ins.(type) {
		case *Goto:
			target = ins.Target
		case *IfGoto:
			target = ins.Target
		default:
			continue
		}
		if target < 0 || target >= len(f.Code) {
			t.Fatalf("instruction %d jumps to %d (len %d):\n%s", pc, target, len(f.Code), Disasm(f))
		}
	}
}

func TestOptimizedCodeShrinks(t *testing.T) {
	src := `
int f(int x) {
    int a = 3 + 4;
    int b = a;
    if (1 == 1) {
        b = b + 0;
    } else {
        b = -999;
    }
    while (2 < 1) { b = 5; }
    return b * 1;
}
`
	prog := compile(t, src)
	before := len(prog.Funcs["f"].Code)
	Optimize(prog)
	after := len(prog.Funcs["f"].Code)
	if after >= before {
		t.Errorf("no shrinkage: %d -> %d\n%s", before, after, Disasm(prog.Funcs["f"]))
	}
}

func TestGotoChainThreaded(t *testing.T) {
	// Nested loops with breaks produce goto chains; after optimization
	// no goto may point at another goto.
	prog := compile(t, `
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            if (j > 3) break;
            s++;
        }
        if (s > 50) break;
    }
    return s;
}
`)
	Optimize(prog)
	f := prog.Funcs["f"]
	for pc, ins := range f.Code {
		if g, ok := ins.(*Goto); ok {
			if _, isGoto := f.Code[g.Target].(*Goto); isGoto {
				t.Errorf("instruction %d: goto-to-goto survived:\n%s", pc, Disasm(f))
			}
		}
	}
}

// TestThreadJumpsCycles pins jump threading on goto cycles: a goto on a
// cycle threads to itself, a chain into a cycle stops at the cycle's
// entry, and a chain out of range stops at its out-of-range target.
func TestThreadJumpsCycles(t *testing.T) {
	f := &Func{Code: []Instr{
		&Goto{Target: 1},   // 0: chain into the cycle 1 -> 2 -> 1
		&Goto{Target: 2},   // 1
		&Goto{Target: 1},   // 2
		&IfGoto{Target: 0}, // 3: conditional jump into the chain
		&Goto{Target: 4},   // 4: self-loop
		&Goto{Target: 6},   // 5: chain out of range
		&Goto{Target: 9},   // 6
	}}
	threadJumps(f)
	want := []int{1, 2, 1, 1, 4, 9, 9}
	for i, ins := range f.Code {
		var got int
		switch ins := ins.(type) {
		case *Goto:
			got = ins.Target
		case *IfGoto:
			got = ins.Target
		}
		if got != want[i] {
			t.Errorf("instruction %d targets %d, want %d", i, got, want[i])
		}
	}
}

// TestDeepNestingCompilesFast guards the front end against inputs whose
// cost grows quadratically: 20,000 nested conditionals build one
// 20,000-long goto chain per function and a 20,000-deep block nest.
func TestDeepNestingCompilesFast(t *testing.T) {
	const depth = 20000
	src := "int f(int x) {\n" + strings.Repeat("if (x) {", depth) + strings.Repeat("}", depth) + "\nreturn 0;\n}\n"
	start := time.Now()
	prog := compile(t, src)
	Optimize(prog)
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("compiling %d nested conditionals took %v, want under 5s", depth, d)
	}
}

package symbolic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func lin(consts int64, pairs ...int64) *Lin {
	var ts []Term
	for i := 0; i+1 < len(pairs); i += 2 {
		ts = append(ts, Term{V: Var(pairs[i]), K: pairs[i+1]})
	}
	return NewLin(consts, ts...)
}

func TestAddSub(t *testing.T) {
	a := lin(3, 0, 2, 1, -1) // 2x0 - x1 + 3
	b := lin(4, 0, -2, 2, 5) // -2x0 + 5x2 + 4
	sum := Add(a, b)
	if sum.Const != 7 || sum.Coeff(0) != 0 || sum.Coeff(1) != -1 || sum.Coeff(2) != 5 {
		t.Fatalf("sum = %v", sum)
	}
	if slices.Contains(sum.Vars(), 0) {
		t.Error("zero coefficient should be dropped")
	}
	diff := Sub(a, a)
	if !diff.IsConst() || diff.Const != 0 {
		t.Fatalf("a - a = %v", diff)
	}
}

func TestScale(t *testing.T) {
	a := lin(5, 0, 3)
	s := Scale(a, -2)
	if s.Const != -10 || s.Coeff(0) != -6 {
		t.Fatalf("scaled = %v", s)
	}
	z := Scale(a, 0)
	if !z.IsConst() || z.Const != 0 {
		t.Fatalf("0*a = %v", z)
	}
}

func TestOverflowDetection(t *testing.T) {
	big := lin(1<<62, 0, 1<<62)
	if Add(big, big) != nil {
		t.Error("Add overflow not detected")
	}
	if Scale(big, 4) != nil {
		t.Error("Scale overflow not detected")
	}
	if Sub(lin(-(1<<62)-10), lin(1<<62)) != nil {
		t.Error("Sub overflow not detected")
	}
}

func TestEvalMatchesStructure(t *testing.T) {
	// Property: Eval is a ring homomorphism for Add/Sub/Scale.
	gen := func(r *rand.Rand) (*Lin, map[Var]int64) {
		k := r.Int63n(1000) - 500
		var ts []Term
		env := map[Var]int64{}
		for v := Var(0); v < 4; v++ {
			if r.Intn(2) == 0 {
				ts = append(ts, Term{V: v, K: r.Int63n(20) - 10})
			}
			env[v] = r.Int63n(100) - 50
		}
		return NewLin(k, ts...), env
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, env := gen(r)
		b, _ := gen(r)
		k := r.Int63n(7) - 3
		if got, want := Add(a, b).Eval(env), a.Eval(env)+b.Eval(env); got != want {
			t.Fatalf("Add eval: %d != %d", got, want)
		}
		if got, want := Sub(a, b).Eval(env), a.Eval(env)-b.Eval(env); got != want {
			t.Fatalf("Sub eval: %d != %d", got, want)
		}
		if got, want := Scale(a, k).Eval(env), k*a.Eval(env); got != want {
			t.Fatalf("Scale eval: %d != %d", got, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := lin(1, 0, 2)
	c := a.Clone()
	c.Terms[0].K = 99
	c.Const = 99
	if a.Coeff(0) != 2 || a.Const != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestEqual(t *testing.T) {
	if !lin(1, 0, 2).Equal(lin(1, 0, 2)) {
		t.Error("equal forms not equal")
	}
	if lin(1, 0, 2).Equal(lin(2, 0, 2)) || lin(1, 0, 2).Equal(lin(1, 0, 3)) ||
		lin(1, 0, 2).Equal(lin(1, 1, 2)) {
		t.Error("different forms compare equal")
	}
}

func TestVarsSorted(t *testing.T) {
	l := lin(0, 5, 1, 1, 1, 3, 1)
	vs := l.Vars()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 3 || vs[2] != 5 {
		t.Fatalf("Vars() = %v", vs)
	}
}

func TestRelNegate(t *testing.T) {
	pairs := map[Rel]Rel{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}
	for r, want := range pairs {
		if r.Negate() != want {
			t.Errorf("%v.Negate() = %v, want %v", r, r.Negate(), want)
		}
		if r.Negate().Negate() != r {
			t.Errorf("double negation of %v", r)
		}
	}
}

func TestPredNegationExcludesMiddle(t *testing.T) {
	// Property: for any form and assignment, exactly one of p and ¬p holds.
	f := func(c int64, coeff int64, x int64) bool {
		l := lin(c%1000, 0, coeff%10)
		env := map[Var]int64{0: x % 1000}
		for _, rel := range []Rel{EQ, NE, LT, LE, GT, GE} {
			p := Pred{L: l, Rel: rel}
			if p.Holds(env) == p.Negate().Holds(env) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredHolds(t *testing.T) {
	l := lin(-5, 0, 1) // x0 - 5
	env := map[Var]int64{0: 5}
	if !(Pred{L: l, Rel: EQ}).Holds(env) {
		t.Error("x0-5 == 0 should hold at x0=5")
	}
	env[0] = 6
	if !(Pred{L: l, Rel: GT}).Holds(env) || (Pred{L: l, Rel: LE}).Holds(env) {
		t.Error("ordering predicates wrong at x0=6")
	}
}

func TestStringForms(t *testing.T) {
	cases := map[string]*Lin{
		"7":             lin(7),
		"x0":            lin(0, 0, 1),
		"2*x0 + 1":      lin(1, 0, 2),
		"x0 - x1":       lin(0, 0, 1, 1, -1),
		"-3*x2 - 4":     lin(-4, 2, -3),
		"x0 + 5*x1 - 2": lin(-2, 0, 1, 1, 5),
	}
	for want, l := range cases {
		if got := l.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	var nilLin *Lin
	if nilLin.String() != "<fallback>" {
		t.Error("nil form should print as <fallback>")
	}
}

func TestPathConstraintString(t *testing.T) {
	pc := PathConstraint{
		{L: lin(0, 0, 1), Rel: NE},
		{L: lin(-10, 0, 1), Rel: EQ},
	}
	if got := pc.String(); got != "(x0 != 0) ∧ (x0 - 10 == 0)" {
		t.Errorf("pc = %q", got)
	}
}

func TestUnitVar(t *testing.T) {
	shifted := NewVar(4)
	shifted.Const = -3 // the solver's bound rows adjust fresh NewVar forms
	for _, c := range []struct {
		l    *Lin
		want Var
		ok   bool
	}{
		{NewVar(4), 4, true},
		{(&Arena{}).NewVar(9), 9, true},
		{NewLin(0, Term{V: 2, K: 1}), 2, true},
		{NewLin(0, Term{V: 2, K: 3}), 0, false},
		{shifted, 0, false},
		{Add(NewVar(1), NewVar(2)), 0, false},
		{NewConst(5), 0, false},
	} {
		if v, ok := c.l.UnitVar(); ok != c.ok || (ok && v != c.want) {
			t.Errorf("%v.UnitVar() = %d, %v; want %d, %v", c.l, v, ok, c.want, c.ok)
		}
	}
}

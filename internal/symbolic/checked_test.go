package symbolic

import (
	"math"
	"testing"
)

func TestEvalCheckedAgreesInRange(t *testing.T) {
	l := NewLin(3, Term{1, 2}, Term{2, -4})
	assign := map[Var]int64{1: 4, 2: 10}
	got, ok := l.EvalChecked(assign)
	if !ok || got != l.Eval(assign) {
		t.Errorf("EvalChecked = %d/%v, want %d/true", got, ok, l.Eval(assign))
	}
}

func TestEvalCheckedRejectsOverflow(t *testing.T) {
	cases := []struct {
		name   string
		l      *Lin
		assign map[Var]int64
	}{
		{"mul", NewLin(0, Term{1, 2}), map[Var]int64{1: math.MaxInt64}},
		{"mul-min-neg1", NewLin(0, Term{1, -1}), map[Var]int64{1: math.MinInt64}},
		{"add", NewLin(math.MaxInt64, Term{1, 1}), map[Var]int64{1: 1}},
		{"sum-of-terms", NewLin(0, Term{1, 1}, Term{2, 1}),
			map[Var]int64{1: math.MaxInt64, 2: math.MaxInt64}},
	}
	for _, c := range cases {
		if _, ok := c.l.EvalChecked(c.assign); ok {
			t.Errorf("%s: wrapping evaluation reported ok", c.name)
		}
	}
}

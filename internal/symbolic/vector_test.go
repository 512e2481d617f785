package symbolic

import "testing"

func TestVector(t *testing.T) {
	x := VectorOf(map[Var]int64{0: 7, 70: -3})
	for _, c := range []struct {
		v    Var
		want int64
		ok   bool
	}{{0, 7, true}, {70, -3, true}, {1, 0, false}, {69, 0, false}, {200, 0, false}, {-1, 0, false}} {
		if got, ok := x.Get(c.v); got != c.want || ok != c.ok {
			t.Errorf("Get(%d) = %d, %v; want %d, %v", c.v, got, ok, c.want, c.ok)
		}
	}
	if _, ok := (&Vector{}).Get(0); ok {
		t.Error("the empty vector assigns a variable")
	}

	c := x.Clone()
	x.Set(0, 1)
	if c.Value(0) != 7 {
		t.Errorf("clone shares storage: v0 = %d", c.Value(0))
	}

	x.Reset()
	if _, ok := x.Get(70); ok {
		t.Error("Reset left a variable assigned")
	}
	x.Set(3, 9)
	if _, ok := x.Get(0); ok {
		t.Error("a variable assigned before Reset reappeared after a later Set")
	}
	if x.Len() != 4 || x.Value(3) != 9 {
		t.Errorf("after Reset and Set(3, 9): Len %d, v3 = %d", x.Len(), x.Value(3))
	}
}

package symbolic

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// coeffPool mixes the ordinary coefficients of path constraints with
// zeros and the int64 extremes, so the overflow paths are exercised.
var coeffPool = []int64{
	0, 0, 1, -1, 2, -3, 7, -10,
	1 << 40, -(1 << 40), 1 << 62, -(1 << 62),
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// refForm is the map-based reference representation of an affine form.
type refForm struct {
	coeffs map[Var]int64
	k      int64
}

func randRef(r *rand.Rand) refForm {
	f := refForm{coeffs: map[Var]int64{}, k: coeffPool[r.Intn(len(coeffPool))]}
	for v := Var(0); v < 6; v++ {
		if r.Intn(2) == 0 {
			f.coeffs[v] = coeffPool[r.Intn(len(coeffPool))]
		}
	}
	return f
}

// build runs the reference form through the constructor, handing it the
// terms in map order (so unsorted, with zero coefficients).
func (f refForm) build() *Lin {
	var ts []Term
	for v, k := range f.coeffs {
		ts = append(ts, Term{V: v, K: k})
	}
	return NewLin(f.k, ts...)
}

// eval is the reference evaluation: wrapping int64 arithmetic over the
// map, which Eval must match exactly (both compute modulo 2^64).
func (f refForm) eval(env map[Var]int64) int64 {
	total := f.k
	for v, k := range f.coeffs {
		total += k * env[v]
	}
	return total
}

// refOp applies op coefficient-wise in exact arithmetic.  ok is false
// when any result coefficient or the constant leaves int64 — exactly
// when the form arithmetic must return nil.
func refOp(a, b refForm, op func(x, y *big.Int) *big.Int) (refForm, bool) {
	out := refForm{coeffs: map[Var]int64{}}
	ok := true
	apply := func(x, y int64) int64 {
		z := op(big.NewInt(x), big.NewInt(y))
		if !z.IsInt64() {
			ok = false
			return 0
		}
		return z.Int64()
	}
	out.k = apply(a.k, b.k)
	for v := Var(0); v < 6; v++ {
		if c := apply(a.coeffs[v], b.coeffs[v]); c != 0 {
			out.coeffs[v] = c
		}
	}
	return out, ok
}

func checkInvariant(t *testing.T, what string, l *Lin) {
	t.Helper()
	for i, term := range l.Terms {
		if term.K == 0 {
			t.Fatalf("%s: zero coefficient in %v", what, l.Terms)
		}
		if i > 0 && l.Terms[i-1].V >= term.V {
			t.Fatalf("%s: terms not strictly ascending: %v", what, l.Terms)
		}
	}
	if cap(l.Terms) != len(l.Terms) {
		t.Fatalf("%s: terms have spare capacity %d > %d; an append could reach shared storage",
			what, cap(l.Terms), len(l.Terms))
	}
}

// checkMatches asserts got is the reference form: same terms, same
// constant, same evaluation.
func checkMatches(t *testing.T, what string, got *Lin, want refForm, env map[Var]int64) {
	t.Helper()
	checkInvariant(t, what, got)
	if got.Const != want.k || len(got.Terms) != len(want.coeffs) {
		t.Fatalf("%s = %v, want %v + %d", what, got, want.coeffs, want.k)
	}
	for _, term := range got.Terms {
		if want.coeffs[term.V] != term.K {
			t.Fatalf("%s = %v, want %v + %d", what, got, want.coeffs, want.k)
		}
	}
	if g, w := got.Eval(env), want.eval(env); g != w {
		t.Fatalf("%s: Eval = %d, reference %d", what, g, w)
	}
}

// TestSortedTermInvariant drives random forms — zero coefficients and
// the int64 extremes included — through the constructor, Add, Sub,
// Scale and Without, with and without an arena, against a map-based
// reference: every result keeps its terms strictly ascending with no
// zero coefficient, evaluates like the reference, and is nil exactly
// when the exact arithmetic leaves int64.  Operands are never modified.
func TestSortedTermInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	add := func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }
	sub := func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }
	for trial := 0; trial < 4000; trial++ {
		ra, rb := randRef(r), randRef(r)
		env := map[Var]int64{}
		for v := Var(0); v < 6; v++ {
			env[v] = r.Int63n(2001) - 1000
		}
		a, b := ra.build(), rb.build()
		na, _ := refOp(ra, refForm{}, add) // ra without its zero coefficients
		nb, _ := refOp(rb, refForm{}, add)
		checkMatches(t, "NewLin(a)", a, na, env)
		checkMatches(t, "NewLin(b)", b, nb, env)
		aTerms, bTerms := slices.Clone(a.Terms), slices.Clone(b.Terms)

		k := coeffPool[r.Intn(len(coeffPool))]
		mul := func(x, _ *big.Int) *big.Int { return new(big.Int).Mul(x, big.NewInt(k)) }
		wantAdd, okAdd := refOp(na, nb, add)
		wantSub, okSub := refOp(na, nb, sub)
		wantScale, okScale := refOp(na, refForm{}, mul)
		ar := &Arena{}
		for _, c := range []struct {
			name string
			got  []*Lin // heap and arena results
			want refForm
			ok   bool
		}{
			{"Add", []*Lin{Add(a, b), ar.Add(a, b)}, wantAdd, okAdd},
			{"Sub", []*Lin{Sub(a, b), ar.Sub(a, b)}, wantSub, okSub},
			{"Scale", []*Lin{Scale(a, k), ar.Scale(a, k)}, wantScale, okScale},
		} {
			for _, got := range c.got {
				if !c.ok {
					if got != nil {
						t.Fatalf("trial %d: %s overflows int64 but returned %v", trial, c.name, got)
					}
					continue
				}
				if got == nil {
					t.Fatalf("trial %d: %s returned nil without overflow (%v, %v, k=%d)", trial, c.name, a, b, k)
				}
				checkMatches(t, c.name, got, c.want, env)
			}
		}

		for v := Var(0); v < 7; v++ {
			want := refForm{coeffs: map[Var]int64{}, k: na.k}
			for w, c := range na.coeffs {
				if w != v {
					want.coeffs[w] = c
				}
			}
			checkMatches(t, "Without", a.Without(v), want, env)
		}
		if !slices.Equal(a.Terms, aTerms) || !slices.Equal(b.Terms, bTerms) {
			t.Fatalf("trial %d: an operation modified its operand", trial)
		}
	}
}

// TestNewLinSumsRepeats: a repeated variable's coefficients are summed
// (a zero sum drops the term), and a sum that overflows yields nil.
func TestNewLinSumsRepeats(t *testing.T) {
	l := NewLin(4, Term{V: 3, K: 2}, Term{V: 1, K: 5}, Term{V: 3, K: -2}, Term{V: 1, K: 1})
	if len(l.Terms) != 1 || l.Terms[0] != (Term{V: 1, K: 6}) || l.Const != 4 {
		t.Errorf("NewLin with repeats = %v, want 6*x1 + 4", l)
	}
	if NewLin(0, Term{V: 1, K: math.MaxInt64}, Term{V: 1, K: 1}) != nil {
		t.Error("an overflowing repeat sum must yield nil")
	}
}

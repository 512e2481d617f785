// Package symbolic implements the symbolic expressions of DART's
// dynamic analysis (Fig. 1 of the paper).
//
// DART's default theory is linear integer arithmetic, so a symbolic value
// is an affine form  Σ cᵢ·xᵢ + k  over input variables xᵢ.  Anything
// outside the theory (a product of two non-constant forms, a division by
// a non-constant, a value produced by a library black box) has no
// representation here: evaluation falls back to the concrete value and a
// completeness flag is cleared, exactly as in the paper.
//
// Branch conditions become predicates  L ⋈ 0  with ⋈ ∈ {=, ≠, <, ≤, >, ≥};
// an executed path is summarized by a path constraint, the conjunction of
// the branch predicates observed in order.
package symbolic

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Var identifies a symbolic input variable.  In the paper a symbolic
// variable is named by the memory address of the input; the engine keeps
// the address-to-Var registry so that Vars stay stable across runs even
// when malloc returns different addresses.
type Var int

// VarKind distinguishes arithmetic inputs from pointer inputs, which are
// solved over the {NULL, fresh allocation} domain that random_init can
// realize.
type VarKind int

// Variable kinds.
const (
	ScalarVar VarKind = iota
	PointerVar
)

// Term is one summand K·V of an affine form.
type Term struct {
	V Var
	K int64
}

// Lin is an affine form Σ K·V + Const over its Terms.  A nil *Lin is
// "not in the theory"; callers must treat it as concrete-only.
//
// Terms are kept in strictly ascending V order and never hold a zero
// coefficient.  Every consumer therefore ranges over the same
// deterministic order, two forms are equal exactly when their terms
// are, and nothing downstream has to filter zeros or sort variables.
//
// Every Lin is immutable once published: the operations below build new
// forms and never write to an operand, so forms may share one term
// slice (a constant shift, a constant operand, a scale by one).  Term
// slices are capped at their length, so not even an append to one can
// reach storage another form reads.  Build forms with NewLin, NewVar,
// NewConst and the arithmetic here, which keep the invariant.
type Lin struct {
	Terms []Term
	Const int64
}

// Shared constant forms for the small values the shadow evaluator
// produces constantly (untainted leaves, literals, comparison results).
// Forms are immutable once published, so interning is safe, and it
// removes an allocation from the machine's per-instruction shadow path.
const (
	internLo = -256
	internHi = 1024
)

var internedConsts [internHi - internLo + 1]Lin

func init() {
	for i := range internedConsts {
		internedConsts[i].Const = int64(i) + internLo
	}
}

// NewConst returns the constant form k.
func NewConst(k int64) *Lin {
	if k >= internLo && k <= internHi {
		return &internedConsts[k-internLo]
	}
	return &Lin{Const: k}
}

// NewVar returns the form 1·v + 0.
func NewVar(v Var) *Lin {
	return &Lin{Terms: []Term{{V: v, K: 1}}}
}

// NewLin returns the form Σ terms + k as a fresh header the caller may
// still adjust before publishing it.  terms may come in any order, repeat
// a variable and hold zero coefficients: repeats are summed in the order
// given and zero sums dropped, so the result keeps the sorted-term
// invariant.  It returns nil when a sum overflows int64.
func NewLin(k int64, terms ...Term) *Lin {
	ts := slices.Clone(terms)
	slices.SortStableFunc(ts, func(a, b Term) int { return cmp.Compare(a.V, b.V) })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].V == t.V {
			s, ok := addOverflow(out[n-1].K, t.K)
			if !ok {
				return nil
			}
			out[n-1].K = s
			continue
		}
		out = append(out, t)
	}
	out = slices.DeleteFunc(out, func(t Term) bool { return t.K == 0 })
	return &Lin{Terms: out[:len(out):len(out)], Const: k}
}

// Arena batch-allocates forms for the machine's shadow and
// branch-predicate paths: Lin headers from one chunk, term storage from
// another.  Published forms are immutable and escape into BranchRec
// snapshots that outlive the run, so chunks are handed out once and
// never recycled — the arena amortizes allocation (one allocation per
// arenaChunk headers or arenaTerms terms), it does not reclaim memory;
// a chunk is collected when the last form in it dies.  The zero Arena
// is ready to use.  A nil *Arena falls back to individual heap
// allocation, which is how the package-level Add/Sub/Scale share the
// arithmetic below.  Not safe for concurrent use; each machine owns one.
type Arena struct {
	chunk []Lin
	// terms is the unused tail of the current term chunk.
	terms []Term
}

// A long-lived form pins its whole chunk, so term chunks are kept small:
// at 512 terms the live heap of a miniSIP re-audit grew ~6%, at 256 ~2%.
const (
	arenaChunk = 512
	arenaTerms = 256
)

// alloc returns a Lin header housing (terms, k).  terms is shared, not
// copied — callers pass storage they just built or the terms of an
// immutable published form.
func (ar *Arena) alloc(terms []Term, k int64) *Lin {
	if ar == nil {
		return &Lin{Terms: terms, Const: k}
	}
	if len(ar.chunk) == 0 {
		ar.chunk = make([]Lin, arenaChunk)
	}
	l := &ar.chunk[0]
	ar.chunk = ar.chunk[1:]
	l.Terms = terms
	l.Const = k
	return l
}

// room returns an empty term slice with capacity n at the arena's free
// cursor; keep then claims the terms written into it.  A result that is
// abandoned (on overflow) costs nothing: the cursor only moves in keep.
func (ar *Arena) room(n int) []Term {
	if ar == nil || n > arenaTerms/4 {
		return make([]Term, 0, n)
	}
	if len(ar.terms) < n {
		ar.terms = make([]Term, arenaTerms)
	}
	return ar.terms[:0:n]
}

// keep claims ts, built in room's slice, capping it at its length so
// the published form's terms stay out of reach of later appends.
func (ar *Arena) keep(ts []Term) []Term {
	n := len(ts)
	if ar != nil && n > 0 && len(ar.terms) > 0 && &ar.terms[0] == &ts[0] {
		ar.terms = ar.terms[n:]
	}
	return ts[:n:n]
}

// NewConst is NewConst through the arena; interned forms still shared.
func (ar *Arena) NewConst(k int64) *Lin {
	if k >= internLo && k <= internHi {
		return &internedConsts[k-internLo]
	}
	return ar.alloc(nil, k)
}

// NewVar is NewVar through the arena.
func (ar *Arena) NewVar(v Var) *Lin {
	ts := append(ar.room(1), Term{V: v, K: 1})
	return ar.alloc(ar.keep(ts), 0)
}

// UnitVar reports whether the form is exactly 1·v + 0, returning v.
func (l *Lin) UnitVar() (Var, bool) {
	if l.Const != 0 || len(l.Terms) != 1 || l.Terms[0].K != 1 {
		return 0, false
	}
	return l.Terms[0].V, true
}

// IsConst reports whether the form has no variables.
func (l *Lin) IsConst() bool { return len(l.Terms) == 0 }

// ConstVal returns the constant term; meaningful when IsConst.
func (l *Lin) ConstVal() int64 { return l.Const }

// Clone returns a copy that shares no storage with l.
func (l *Lin) Clone() *Lin {
	return &Lin{Terms: slices.Clip(slices.Clone(l.Terms)), Const: l.Const}
}

// Vars returns the variables of the form in ascending order.
func (l *Lin) Vars() []Var {
	vs := make([]Var, len(l.Terms))
	for i, t := range l.Terms {
		vs[i] = t.V
	}
	return vs
}

// Coeff returns the coefficient of v (0 when absent).
func (l *Lin) Coeff(v Var) int64 {
	for _, t := range l.Terms {
		if t.V >= v {
			if t.V == v {
				return t.K
			}
			break
		}
	}
	return 0
}

// Without returns the form with v's term removed (l itself when v does
// not occur).  Dropping the first or last term shares l's storage.
func (l *Lin) Without(v Var) *Lin {
	ts := l.Terms
	i := slices.IndexFunc(ts, func(t Term) bool { return t.V == v })
	switch {
	case i < 0:
		return l
	case i == 0:
		return &Lin{Terms: ts[1:], Const: l.Const}
	case i == len(ts)-1:
		return &Lin{Terms: ts[:i:i], Const: l.Const}
	}
	out := make([]Term, 0, len(ts)-1)
	out = append(append(out, ts[:i]...), ts[i+1:]...)
	return &Lin{Terms: out, Const: l.Const}
}

// Add returns a+b, or nil on coefficient overflow.
func Add(a, b *Lin) *Lin { return (*Arena)(nil).Add(a, b) }

// Add is the arena form of the package-level Add.
func (ar *Arena) Add(a, b *Lin) *Lin { return ar.merge(a, b, false) }

// Sub returns a-b, or nil on overflow.  This sits on the machine's
// branch-predicate path (every tainted conditional computes lhs-rhs),
// so it merges the two term lists in one pass — and when b is constant
// (comparisons against literals, the overwhelmingly common branch
// shape) the result shares a's terms outright.
func Sub(a, b *Lin) *Lin { return (*Arena)(nil).Sub(a, b) }

// Sub is the arena form of the package-level Sub.
func (ar *Arena) Sub(a, b *Lin) *Lin { return ar.merge(a, b, true) }

// merge returns a+b, or a-b when neg, as one merge of the two sorted
// term lists; nil on overflow.  A constant operand contributes no terms,
// so the result shares the other side's term slice.
func (ar *Arena) merge(a, b *Lin, neg bool) *Lin {
	k, ok := addOverflow(a.Const, b.Const)
	if neg {
		k, ok = subOverflow(a.Const, b.Const)
	}
	if !ok {
		return nil
	}
	if len(b.Terms) == 0 {
		return ar.alloc(a.Terms, k)
	}
	if len(a.Terms) == 0 && !neg {
		return ar.alloc(b.Terms, k)
	}
	at, bt := a.Terms, b.Terms
	ts := ar.room(len(at) + len(bt))
	for len(at) > 0 || len(bt) > 0 {
		switch {
		case len(bt) == 0 || (len(at) > 0 && at[0].V < bt[0].V):
			ts = append(ts, at[0])
			at = at[1:]
		case len(at) == 0 || bt[0].V < at[0].V:
			t := bt[0]
			bt = bt[1:]
			if neg {
				if t.K, ok = subOverflow(0, t.K); !ok {
					return nil
				}
			}
			ts = append(ts, t)
		default:
			s, ok := addOverflow(at[0].K, bt[0].K)
			if neg {
				s, ok = subOverflow(at[0].K, bt[0].K)
			}
			if !ok {
				return nil
			}
			if s != 0 {
				ts = append(ts, Term{V: at[0].V, K: s})
			}
			at, bt = at[1:], bt[1:]
		}
	}
	return ar.alloc(ar.keep(ts), k)
}

// Scale returns k·a, or nil on overflow.
func Scale(a *Lin, k int64) *Lin { return (*Arena)(nil).Scale(a, k) }

// Scale is the arena form of the package-level Scale.
func (ar *Arena) Scale(a *Lin, k int64) *Lin {
	if k == 1 {
		return a
	}
	kc, ok := mulOverflow(a.Const, k)
	if !ok {
		return nil
	}
	if k == 0 || len(a.Terms) == 0 {
		return ar.alloc(nil, kc)
	}
	// k ≠ 0 and no zero coefficients: every product is nonzero.
	ts := ar.room(len(a.Terms))
	for _, t := range a.Terms {
		p, ok := mulOverflow(t.K, k)
		if !ok {
			return nil
		}
		ts = append(ts, Term{V: t.V, K: p})
	}
	return ar.alloc(ar.keep(ts), kc)
}

// Eval evaluates the form under the assignment.
func (l *Lin) Eval(assign map[Var]int64) int64 {
	total := l.Const
	for _, t := range l.Terms {
		total += t.K * assign[t.V]
	}
	return total
}

// EvalChecked evaluates the form under the assignment with overflow
// detection: ok is false when any coefficient product or partial sum
// leaves int64.  Raw Eval wraps silently in that case, which can make a
// mathematically false predicate look satisfied; soundness-critical
// checks (the solver's candidate verification) must use this form.
func (l *Lin) EvalChecked(assign map[Var]int64) (total int64, ok bool) {
	total = l.Const
	for _, t := range l.Terms {
		p, ok := mulOverflow(t.K, assign[t.V])
		if !ok {
			return 0, false
		}
		total, ok = addOverflow(total, p)
		if !ok {
			return 0, false
		}
	}
	return total, true
}

// Equal reports structural equality of two forms.
func (l *Lin) Equal(o *Lin) bool {
	return l.Const == o.Const && slices.Equal(l.Terms, o.Terms)
}

func (l *Lin) String() string { return l.StringNamed(nil) }

func subOverflow(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func addOverflow(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulOverflow is the exact overflow-detecting product.  The quotient
// check alone misses MinInt64 · -1, which wraps back to MinInt64.
func mulOverflow(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == -1 && b == minInt64) || (b == -1 && a == minInt64) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

const minInt64 = -1 << 63

// ---------------------------------------------------------------- preds

// Rel is a predicate relation against zero.
type Rel int

// Relations; the predicate is L Rel 0.
const (
	EQ Rel = iota
	NE
	LT
	LE
	GT
	GE
)

var relNames = [...]string{EQ: "==", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}

func (r Rel) String() string { return relNames[r] }

// Negate returns the complementary relation.
func (r Rel) Negate() Rel {
	switch r {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	panic("symbolic: bad relation")
}

// Pred is the atomic branch predicate L Rel 0.
type Pred struct {
	L   *Lin
	Rel Rel
}

// Negate returns the logical negation of the predicate.
func (p Pred) Negate() Pred { return Pred{L: p.L, Rel: p.Rel.Negate()} }

// Holds evaluates the predicate under an assignment.
func (p Pred) Holds(assign map[Var]int64) bool {
	v := p.L.Eval(assign)
	switch p.Rel {
	case EQ:
		return v == 0
	case NE:
		return v != 0
	case LT:
		return v < 0
	case LE:
		return v <= 0
	case GT:
		return v > 0
	case GE:
		return v >= 0
	}
	return false
}

func (p Pred) String() string { return fmt.Sprintf("%s %s 0", p.L, p.Rel) }

// StringNamed renders the form with name supplying each variable's
// display name (nil falls back to the x%d default).  Var numbering is
// first-use order and races across parallel workers, so any rendering
// that must be schedule-independent — the coverage explainer's unsat
// slices — names variables by their stable input keys instead.
func (l *Lin) StringNamed(name func(Var) string) string {
	if l == nil {
		return "<fallback>"
	}
	var b strings.Builder
	for i, t := range l.Terms {
		n := "x" + strconv.Itoa(int(t.V))
		if name != nil {
			n = name(t.V)
		}
		k := t.K
		switch {
		case i == 0 && k == 1:
			b.WriteString(n)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", k, n)
		case k == 1:
			fmt.Fprintf(&b, " + %s", n)
		case k == -1:
			fmt.Fprintf(&b, " - %s", n)
		case k > 0:
			fmt.Fprintf(&b, " + %d*%s", k, n)
		default:
			fmt.Fprintf(&b, " - %d*%s", -k, n)
		}
	}
	switch {
	case len(l.Terms) == 0:
		fmt.Fprintf(&b, "%d", l.Const)
	case l.Const > 0:
		fmt.Fprintf(&b, " + %d", l.Const)
	case l.Const < 0:
		fmt.Fprintf(&b, " - %d", -l.Const)
	}
	return b.String()
}

// StringNamed renders the predicate with named variables.
func (p Pred) StringNamed(name func(Var) string) string {
	return fmt.Sprintf("%s %s 0", p.L.StringNamed(name), p.Rel)
}

// StringNamed renders the conjunction with named variables.
func (pc PathConstraint) StringNamed(name func(Var) string) string {
	parts := make([]string, len(pc))
	for i, p := range pc {
		parts[i] = p.StringNamed(name)
	}
	return "(" + strings.Join(parts, ") ∧ (") + ")"
}

// PathConstraint is the ordered conjunction of branch predicates observed
// along one execution.
type PathConstraint []Pred

func (pc PathConstraint) String() string {
	parts := make([]string, len(pc))
	for i, p := range pc {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, ") ∧ (") + ")"
}

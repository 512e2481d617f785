// The directed-search fast path: constraint independence slicing,
// canonical keying, and full-conjunction verification.
//
// DART's inner loop (Fig. 5 / Sec. 3.3) solves the path-constraint
// prefix with only the final predicate negated, so successive solver
// calls see highly redundant conjunctions.  Two classic reductions make
// this cheap without changing any result:
//
//   - Independence slicing.  Partition the conjunction into connected
//     components under the "shares a variable" relation and hand the
//     solver only the component containing the negated predicate.  The
//     other components are satisfied for free: their predicates were
//     observed true on the parent run, and IM + IM' preserves the
//     concrete values of every variable the solver does not touch.
//   - Solve memoization.  Key each sliced solve on an exact rendering
//     of the solver's input — the slice's predicate sequence plus the
//     hint values it depends on — and reuse the verdict and model when
//     the identical solve recurs.  Because key equality implies the
//     solver would see the byte-identical input, a cache hit is
//     indistinguishable from re-running the solver: caching can change
//     how fast a search runs, never what it finds.
//
// The slice preserves the path constraint's own predicate order.  An
// earlier design sorted slices into an order-insensitive canonical form
// so permuted prefixes could share cache entries; measurements showed
// the reordering made the solver materially slower (its substitution
// and elimination order follows predicate order, which in a path
// constraint mirrors the program's own structure) while the directed
// loop re-solves identical prefixes in identical order anyway, so
// cross-order sharing bought nothing.
//
// Soundness is preserved by construction: the package-doc contract that
// every returned assignment is verified against the original predicates
// is re-established at the full-conjunction level by VerifyAssignment,
// which callers run against the *unsliced* constraint (overflow-checked)
// whenever slicing actually pruned predicates.  (When nothing was
// pruned, the solver's own final verification already covered the full
// conjunction.)
package solver

import (
	"slices"
	"strconv"
	"strings"

	"dart/internal/symbolic"
)

// CanonicalSlice returns the connected component of pc containing its
// final predicate (the negated branch of Fig. 5), preserving pc's
// predicate order, plus the number of predicates pruned away.
// Components are computed under the "shares a variable" relation;
// variable-free predicates belong to no component
// and are pruned unless they are the target itself.  When any predicate
// is outside the theory (nil form), pc is returned unchanged so the
// solver reports the failure on the full conjunction, exactly as
// without slicing.
//
// When nothing is pruned the returned slice is pc itself; callers must
// not mutate it.
func CanonicalSlice(pc []symbolic.Pred) (slice []symbolic.Pred, pruned int) {
	return CanonicalSliceScratch(pc, nil)
}

// CanonicalSliceScratch is CanonicalSlice with caller-provided
// union-find scratch: *parent (if parent is non-nil) is grown as needed
// and reused, so a search's many slicing calls share one slice.  The
// union-find is dense over variable ids — symbolic.Vars are dense
// registry indices — and every entry it reads is initialized by the
// call itself, so the scratch needs no clearing and holds nothing the
// caller must preserve.
func CanonicalSliceScratch(pc []symbolic.Pred, parent *[]symbolic.Var) (slice []symbolic.Pred, pruned int) {
	if len(pc) <= 1 {
		return pc, 0
	}
	maxVar := symbolic.Var(-1)
	for _, p := range pc {
		if p.L == nil {
			return pc, 0
		}
		// Terms ascend, so the last is the form's largest variable.
		if n := len(p.L.Terms); n > 0 && p.L.Terms[n-1].V > maxVar {
			maxVar = p.L.Terms[n-1].V
		}
	}

	if len(pc) == 2 {
		// Depth-one prefixes are the overwhelmingly common non-trivial
		// case; decide them with a direct merge instead of union-find.
		if shareVar(pc[0].L.Terms, pc[1].L.Terms) {
			return pc, 0
		}
		// No shared variable (or a variable-free target): the prefix
		// predicate is outside the component and is pruned.
		return pc[1:], 1
	}

	// Union-find over variables; each predicate unions its variables
	// into its first one.  (Any root choice yields the same partition,
	// which is all the slice depends on.)
	if parent == nil {
		parent = new([]symbolic.Var)
	}
	if n := int(maxVar) + 1; len(*parent) < n {
		*parent = make([]symbolic.Var, n+n/2)
	}
	uf := *parent
	for _, p := range pc {
		for _, t := range p.L.Terms {
			uf[t.V] = t.V
		}
	}
	for _, p := range pc {
		ts := p.L.Terms
		for _, t := range ts[min(1, len(ts)):] {
			if ra, rb := find(uf, ts[0].V), find(uf, t.V); ra != rb {
				uf[ra] = rb
			}
		}
	}

	target := pc[len(pc)-1]
	if target.L.IsConst() {
		// A constant target shares no variables with anything; solving it
		// alone decides the flip, and VerifyAssignment still re-checks the
		// pruned prefix.
		return pc[len(pc)-1:], len(pc) - 1
	}
	targetRoot := find(uf, target.L.Terms[0].V)

	// A predicate's variables all share one root, so its first term
	// decides its component.
	inComponent := func(p symbolic.Pred) bool {
		return !p.L.IsConst() && find(uf, p.L.Terms[0].V) == targetRoot
	}
	kept := 0
	for _, p := range pc {
		if inComponent(p) {
			kept++
		}
	}
	if kept == len(pc) {
		return pc, 0
	}
	slice = make([]symbolic.Pred, 0, kept)
	for _, p := range pc {
		if inComponent(p) {
			slice = append(slice, p)
		}
	}
	return slice, len(pc) - len(slice)
}

// find returns v's union-find root, halving the path as it goes.
func find(parent []symbolic.Var, v symbolic.Var) symbolic.Var {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// shareVar reports whether two sorted term lists mention a common
// variable.
func shareVar(a, b []symbolic.Term) bool {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].V < b[0].V:
			a = a[1:]
		case b[0].V < a[0].V:
			b = b[1:]
		default:
			return true
		}
	}
	return false
}

// CacheKey is the identity of one sliced solve: the slice's predicates
// rendered in solve order, plus the hint values of every variable they
// mention.  The key deliberately encodes the predicate *sequence*, not
// just the set — key equality therefore means the solver would see the
// byte-identical input (same predicates, same order, same hint), so a
// cache hit returns exactly what a fresh solve would, and the
// determinism of cache-on versus cache-off searches reduces to the
// solver being a pure function of its input.  The hint belongs in the
// key because Solve seeds candidate enumeration and disequality splits
// from it; variables absent from the hint are recorded as such.
func CacheKey(slice []symbolic.Pred, hint symbolic.Vector) string {
	var b strings.Builder
	b.Grow(32 * (len(slice) + 1))
	vs := make([]symbolic.Var, 0, 16) // every slice variable, with repeats
	for _, p := range slice {
		vs = appendPredKey(&b, p, vs)
		b.WriteByte('&')
	}
	b.WriteByte('#')
	slices.Sort(vs)
	for i, v := range vs {
		if i > 0 && vs[i-1] == v {
			continue
		}
		b.WriteString(strconv.Itoa(int(v)))
		b.WriteByte('=')
		if h, ok := hint.Get(v); ok {
			b.WriteString(strconv.FormatInt(h, 10))
		} else {
			b.WriteByte('?')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// appendPredKey appends p's canonical rendering to b — relation code,
// constant, then var:coeff pairs in ascending variable order — and
// appends p's variables to vs, which it returns.  Structurally equal
// predicates, and only those, render identically.
func appendPredKey(b *strings.Builder, p symbolic.Pred, vs []symbolic.Var) []symbolic.Var {
	b.WriteByte('r')
	b.WriteString(strconv.Itoa(int(p.Rel)))
	if p.L == nil {
		b.WriteString("|<fallback>")
		return vs
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(p.L.Const, 10))
	for _, t := range p.L.Terms {
		vs = append(vs, t.V)
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(int(t.V)))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(t.K, 10))
	}
	return vs
}

// predKey renders one predicate in its CacheKey form (test hook).
func predKey(p symbolic.Pred) string {
	var b strings.Builder
	appendPredKey(&b, p, nil)
	return b.String()
}

// VerifyAssignment reports whether sol, completed by hint for variables
// it does not assign, satisfies every predicate of the full conjunction
// pc.  Integer predicates are evaluated with overflow checking (a
// wrapping evaluation counts as unsatisfied); pointer predicates must be
// definitely true under three-valued evaluation; predicates outside the
// theory, or mixing pointer and scalar variables, fail conservatively —
// the same classes the solver itself refuses.  Callers of sliced solves
// run this against the unsliced constraint whenever predicates were
// pruned, re-establishing the package-doc soundness contract at the
// full-conjunction level.
func VerifyAssignment(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, sol map[symbolic.Var]int64, hint symbolic.Vector) bool {
	return VerifyAssignmentScratch(pc, meta, sol, hint, nil)
}

// VerifyAssignmentScratch is VerifyAssignment with a caller-provided
// scratch map for the completed assignment: assign (if non-nil) is
// cleared and reused, so a search's many verifications share one map.
// The scratch holds nothing the caller must preserve after return.
func VerifyAssignmentScratch(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, sol map[symbolic.Var]int64, hint symbolic.Vector, assign map[symbolic.Var]int64) bool {
	if assign != nil {
		clear(assign)
	}
	for _, p := range pc {
		if p.L == nil {
			return false
		}
		if assign == nil {
			assign = make(map[symbolic.Var]int64, len(sol)+8)
		}
		hasPtr, hasScalar := false, false
		for _, t := range p.L.Terms {
			if meta(t.V).Kind == symbolic.PointerVar {
				hasPtr = true
			} else {
				hasScalar = true
			}
			if _, ok := assign[t.V]; !ok {
				if x, ok := sol[t.V]; ok {
					assign[t.V] = x
				} else {
					assign[t.V] = hint.Value(t.V)
				}
			}
		}
		switch {
		case hasPtr && hasScalar:
			return false
		case hasPtr:
			if evalPtrPred(p, assign) != triTrue {
				return false
			}
		default:
			if !holdsChecked(p, assign) {
				return false
			}
		}
	}
	return true
}

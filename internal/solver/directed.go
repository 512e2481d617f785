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
	"strconv"
	"strings"

	"dart/internal/symbolic"
)

// CanonicalSlice returns the connected component of pc containing its
// final predicate (the negated branch of Fig. 5), preserving pc's
// predicate order, plus the number of predicates pruned away.
// Components are computed under the "shares a variable" relation (zero
// coefficients ignored); variable-free predicates belong to no component
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

// CanonicalSliceScratch is CanonicalSlice with caller-provided union-find
// scratch: parent (if non-nil) is cleared and reused, so a search's many
// slicing calls share one map.  The scratch holds nothing after return.
func CanonicalSliceScratch(pc []symbolic.Pred, parent map[symbolic.Var]symbolic.Var) (slice []symbolic.Pred, pruned int) {
	if len(pc) <= 1 {
		return pc, 0
	}
	for _, p := range pc {
		if p.L == nil {
			return pc, 0
		}
	}

	if len(pc) == 2 {
		// Depth-one prefixes are the overwhelmingly common non-trivial
		// case; decide them with a direct scan instead of union-find.
		for v, c := range pc[1].L.Coeffs {
			if c != 0 && pc[0].L.Coeff(v) != 0 {
				return pc, 0
			}
		}
		// No shared variable (or a variable-free target): the prefix
		// predicate is outside the component and is pruned.
		return pc[1:], 1
	}

	// Union-find over variables; each predicate unions its variables.
	// (Iterative find: no closure allocations on the solve path.  Any
	// root choice yields the same partition, which is all the slice
	// depends on.)
	if parent == nil {
		parent = map[symbolic.Var]symbolic.Var{}
	} else {
		clear(parent)
	}
	find := func(v symbolic.Var) symbolic.Var {
		r, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		for r != parent[r] {
			parent[r] = parent[parent[r]]
			r = parent[r]
		}
		parent[v] = r
		return r
	}
	for _, p := range pc {
		var first symbolic.Var
		seen := false
		for v, c := range p.L.Coeffs {
			if c == 0 {
				continue
			}
			if !seen {
				first, seen = v, true
				find(v)
				continue
			}
			ra, rb := find(first), find(v)
			if ra != rb {
				parent[ra] = rb
			}
		}
	}

	target := pc[len(pc)-1]
	var targetRoot symbolic.Var
	targetHasVars := false
	for v, c := range target.L.Coeffs {
		if c != 0 {
			targetRoot, targetHasVars = find(v), true
			break
		}
	}
	if !targetHasVars {
		// A constant target shares no variables with anything; solving it
		// alone decides the flip, and VerifyAssignment still re-checks the
		// pruned prefix.
		return pc[len(pc)-1:], len(pc) - 1
	}

	inComponent := func(p symbolic.Pred) bool {
		for v, c := range p.L.Coeffs {
			if c != 0 && find(v) == targetRoot {
				return true
			}
		}
		return false
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
	sortVars(vs)
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

// sortVars is an allocation-free insertion sort: key building sits on
// the solve path and the var lists are short, so reflection-based
// sort.Slice (closure + swapper allocations per call) costs more than
// the sort itself.
func sortVars(vs []symbolic.Var) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// appendPredKey appends p's canonical rendering to b — relation code,
// constant, then var:coeff pairs in ascending variable order (zero
// coefficients skipped) — and appends p's variables to vs, which it
// returns.  Structurally equal predicates, and only those, render
// identically.
func appendPredKey(b *strings.Builder, p symbolic.Pred, vs []symbolic.Var) []symbolic.Var {
	b.WriteByte('r')
	b.WriteString(strconv.Itoa(int(p.Rel)))
	if p.L == nil {
		b.WriteString("|<fallback>")
		return vs
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(p.L.Const, 10))
	start := len(vs)
	for v, c := range p.L.Coeffs {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	own := vs[start:]
	sortVars(own)
	for _, v := range own {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(int(v)))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(p.L.Coeffs[v], 10))
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
		for v, c := range p.L.Coeffs {
			if c == 0 {
				continue
			}
			if meta(v).Kind == symbolic.PointerVar {
				hasPtr = true
			} else {
				hasScalar = true
			}
			if _, ok := assign[v]; !ok {
				if x, ok := sol[v]; ok {
					assign[v] = x
				} else {
					assign[v] = hint.Value(v)
				}
			}
		}
		switch {
		case hasPtr && hasScalar:
			return false
		case hasPtr:
			if evalPtrPred(symbolic.Pred{L: stripZeros(p.L), Rel: p.Rel}, assign) != triTrue {
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

// Cross-process solve memoization: the portable rendering of a solve
// and the contract a disk-backed cache layer implements.
//
// CacheKey (directed.go) renders variables by their symbolic.Var
// numbers, which are assigned in first-use order *within one search* —
// perfectly sound for the per-search LRU, and meaningless outside it:
// the same bytes can denote different constraints in another search,
// another function, another process.  A persistent layer therefore
// needs a key that renders the solver's entire semantic input with no
// search-local state: every variable appears as its stable input key
// (the "d0.x" naming scheme shared by the engine, Replay, and recorded
// input vectors) together with its full domain, the predicate sequence
// keeps solve order exactly like CacheKey, the hint travels by name,
// and the work budget is part of the key (a BudgetExhausted verdict is
// only reusable under the same budget).  Key equality then means any
// solver anywhere would see the byte-identical input, so a persistent
// hit returns precisely what a fresh solve would — the same argument
// that makes the in-memory memo invisible to search results.
package solver

import (
	"sort"
	"strconv"
	"strings"

	"dart/internal/symbolic"
)

// PortableResult is a persisted solve outcome: the verdict plus, for
// Sat, the model keyed by stable input-key names.
type PortableResult struct {
	Verdict Verdict
	Model   map[string]int64
}

// PersistentCache is the contract of a disk-backed solve memo shared
// across searches and processes.  Implementations must be safe for
// concurrent use (parallel audit workers consult one cache) and must
// treat any unreadable or corrupt persisted record as absent — a
// degraded cache costs solver time, never a wrong verdict.
type PersistentCache interface {
	// GetPortable returns the persisted result for key, if any.
	GetPortable(key string) (PortableResult, bool)
	// PutPortable records one solve outcome.  The model map must not be
	// retained by reference after the call returns.
	PutPortable(key string, verdict Verdict, model map[string]int64)
}

// portableKeyVersion stamps every portable key so a future change to
// the rendering (or to solver semantics that the rendering cannot see)
// invalidates old entries wholesale instead of aliasing them.
const portableKeyVersion = "pk1"

// PortableKey renders one sliced solve with no search-local state:
// version, work budget, the predicate sequence in solve order (each
// variable as name + domain, coefficient pairs in name order), and the
// hint values by name.  name and meta resolve a variable to its stable
// input key and solver domain; both must be total over the slice's
// variables.
func PortableKey(slice []symbolic.Pred, hint symbolic.Vector, budget int64, name func(symbolic.Var) string, meta func(symbolic.Var) VarMeta) string {
	var b strings.Builder
	b.Grow(64 * (len(slice) + 1))
	b.WriteString(portableKeyVersion)
	b.WriteString("!b")
	b.WriteString(strconv.FormatInt(budget, 10))
	b.WriteByte('!')

	// Deduped slice variables, gathered while rendering predicates.
	seen := map[symbolic.Var]bool{}
	var vars []symbolic.Var
	type pair struct {
		n string
		v symbolic.Var
		k int64
	}
	var pairs []pair
	for _, p := range slice {
		b.WriteByte('r')
		b.WriteString(strconv.Itoa(int(p.Rel)))
		if p.L == nil {
			b.WriteString("|<fallback>&")
			continue
		}
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(p.L.Const, 10))
		pairs = pairs[:0]
		for _, t := range p.L.Terms {
			pairs = append(pairs, pair{name(t.V), t.V, t.K})
			if !seen[t.V] {
				seen[t.V] = true
				vars = append(vars, t.V)
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].n < pairs[j].n })
		for _, pr := range pairs {
			b.WriteByte('|')
			writeName(&b, pr.n)
			m := meta(pr.v)
			b.WriteByte('{')
			b.WriteString(strconv.Itoa(int(m.Kind)))
			b.WriteByte(',')
			b.WriteString(strconv.FormatInt(m.Lo, 10))
			b.WriteByte(',')
			b.WriteString(strconv.FormatInt(m.Hi, 10))
			b.WriteString("}:")
			b.WriteString(strconv.FormatInt(pr.k, 10))
		}
		b.WriteByte('&')
	}

	// Hint section: the slice's variables in name order, each with its
	// hint value (or '?' when absent), exactly mirroring CacheKey.
	b.WriteByte('#')
	names := make([]string, len(vars))
	byName := make(map[string]symbolic.Var, len(vars))
	for i, v := range vars {
		names[i] = name(v)
		byName[names[i]] = v
	}
	sort.Strings(names)
	for _, n := range names {
		writeName(&b, n)
		b.WriteByte('=')
		if h, ok := hint.Get(byName[n]); ok {
			b.WriteString(strconv.FormatInt(h, 10))
		} else {
			b.WriteByte('?')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// writeName writes a length-prefixed name, so names can never collide
// with the key's own delimiters no matter what characters they contain.
func writeName(b *strings.Builder, n string) {
	b.WriteString(strconv.Itoa(len(n)))
	b.WriteByte(':')
	b.WriteString(n)
}

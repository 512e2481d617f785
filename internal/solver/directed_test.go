package solver

import (
	"math"
	"testing"

	"dart/internal/symbolic"
)

// clusterPC is a conjunction with two independent components — {v0} and
// {v2, v3} — plus a v1 predicate, targeting a second v0 predicate.
func clusterPC() []symbolic.Pred {
	return []symbolic.Pred{
		pred(symbolic.GT, 0, 0, 1),         // v0 > 0
		pred(symbolic.GT, 0, 1, 1),         // v1 > 0
		pred(symbolic.GT, -10, 2, 1, 3, 1), // v2 + v3 > 10
		pred(symbolic.LT, -5, 0, 1),        // v0 < 5  (the negated branch)
	}
}

func TestCanonicalSliceIndependentClusters(t *testing.T) {
	slice, pruned := CanonicalSlice(clusterPC())
	if pruned != 2 {
		t.Fatalf("pruned = %d, want 2 (the v1 and v2+v3 predicates)", pruned)
	}
	if len(slice) != 2 {
		t.Fatalf("slice length = %d, want 2", len(slice))
	}
	for _, p := range slice {
		if len(p.L.Terms) != 1 || p.L.Coeff(0) == 0 {
			t.Errorf("slice predicate %v mentions variables outside the v0 component", p)
		}
	}
}

func TestCanonicalSlicePreservesOrder(t *testing.T) {
	// The slice must keep pc's own predicate order: the solver's
	// substitution and elimination order follows predicate order, so
	// reordering would change (and in practice slow) the solve.
	pc := clusterPC()
	slice, _ := CanonicalSlice(pc)
	want := []symbolic.Pred{pc[0], pc[3]} // the v0 component, in pc order
	if len(slice) != len(want) || predKey(slice[0]) != predKey(want[0]) || predKey(slice[1]) != predKey(want[1]) {
		t.Errorf("slice = %v, want the v0 predicates in pc order %v", slice, want)
	}
	// And the identical pc must slice to the identical key — the solves
	// the directed loop actually repeats.
	again, _ := CanonicalSlice(clusterPC())
	if CacheKey(slice, symbolic.Vector{}) != CacheKey(again, symbolic.Vector{}) {
		t.Error("identical conjunctions produced different cache keys")
	}
}

func TestCacheKeyOrderSensitive(t *testing.T) {
	// The key encodes the predicate *sequence*, not the set: key equality
	// must imply the solver sees the byte-identical input, which is what
	// makes a cache hit provably identical to a fresh solve.
	a := []symbolic.Pred{pred(symbolic.GT, 0, 0, 1), pred(symbolic.LT, -5, 0, 1)}
	b := []symbolic.Pred{a[1], a[0]}
	if CacheKey(a, symbolic.Vector{}) == CacheKey(b, symbolic.Vector{}) {
		t.Error("reordered slices must not share a cache key")
	}
}

func TestCanonicalSliceConstantTarget(t *testing.T) {
	pc := []symbolic.Pred{
		pred(symbolic.GT, 0, 0, 1),
		pred(symbolic.GE, -4), // constant: -4 >= 0, variable-free
	}
	slice, pruned := CanonicalSlice(pc)
	if pruned != 1 || len(slice) != 1 || len(slice[0].L.Terms) != 0 {
		t.Errorf("constant target: slice %v pruned %d, want just the constant", slice, pruned)
	}
}

func TestCanonicalSliceFallbackKeepsAll(t *testing.T) {
	// An out-of-theory predicate (nil form) disables slicing: the solver
	// must see the full conjunction and report the failure itself.
	pc := []symbolic.Pred{
		pred(symbolic.GT, 0, 0, 1),
		{L: nil, Rel: symbolic.EQ},
		pred(symbolic.LT, -5, 1, 1),
	}
	slice, pruned := CanonicalSlice(pc)
	if pruned != 0 || len(slice) != len(pc) {
		t.Errorf("fallback pred: slice %v pruned %d, want full conjunction", slice, pruned)
	}
}

func TestCacheKeyIncludesHintOfSliceVars(t *testing.T) {
	slice, _ := CanonicalSlice(clusterPC())
	k1 := CacheKey(slice, symbolic.VectorOf(map[symbolic.Var]int64{0: 1}))
	k2 := CacheKey(slice, symbolic.VectorOf(map[symbolic.Var]int64{0: 2}))
	if k1 == k2 {
		t.Error("different hints for a slice variable must produce different keys")
	}
	// Hints for variables outside the slice are irrelevant to the solve
	// and must not fragment the key space.
	k3 := CacheKey(slice, symbolic.VectorOf(map[symbolic.Var]int64{0: 1, 2: 99, 3: -7}))
	if k1 != k3 {
		t.Error("hints of non-slice variables must not change the key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("k1", Sat, map[symbolic.Var]int64{0: 1})
	if c.Put("k2", Unsat, nil) {
		t.Error("filling to capacity must not evict")
	}
	c.Get("k1") // k2 becomes least recently used
	if !c.Put("k3", Sat, nil) {
		t.Error("inserting past capacity must evict")
	}
	if _, ok := c.Get("k2"); ok {
		t.Error("the LRU entry (k2) should have been evicted")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Error("recently used k1 must survive")
	}
	if c.Len() != 2 || c.Evictions() != 1 {
		t.Errorf("len=%d evictions=%d, want 2/1", c.Len(), c.Evictions())
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := NewCache(1)
	c.Put("k", Sat, map[symbolic.Var]int64{0: 1})
	if c.Put("k", Unsat, nil) {
		t.Error("re-memoizing an existing key must not evict")
	}
	got, ok := c.Get("k")
	if !ok || got.Verdict != Unsat {
		t.Errorf("updated entry = %+v, want Unsat", got)
	}
}

func TestCacheModelIsCopied(t *testing.T) {
	c := NewCache(4)
	model := map[symbolic.Var]int64{0: 10}
	c.Put("k", Sat, model)
	model[0] = 99 // caller mutates after store
	got, _ := c.Get("k")
	if got.Model[0] != 10 {
		t.Error("stored model aliased the caller's map")
	}
	got.Model[0] = 55 // consumer mutates the returned copy
	again, _ := c.Get("k")
	if again.Model[0] != 10 {
		t.Error("returned model aliased the cached map")
	}
}

func TestVerifyAssignmentFullConjunction(t *testing.T) {
	pc := clusterPC()
	sol := map[symbolic.Var]int64{0: 3}
	hint := map[symbolic.Var]int64{1: 5, 2: 20, 3: 0}
	if !VerifyAssignment(pc, intMeta, sol, symbolic.VectorOf(hint)) {
		t.Error("a satisfying slice solution completed by a satisfying hint must verify")
	}
	// A pruned-component violation must fail verification even though the
	// solved slice is satisfied.
	bad := map[symbolic.Var]int64{1: -5, 2: 20, 3: 0}
	if VerifyAssignment(pc, intMeta, sol, symbolic.VectorOf(bad)) {
		t.Error("a violated pruned predicate must fail full-conjunction verification")
	}
}

func TestVerifyAssignmentRejectsOverflow(t *testing.T) {
	// 2*v0 > 0 under v0 = MaxInt64 wraps to -2: a wrapping evaluation
	// would accept the candidate, the checked one must reject it.
	pc := []symbolic.Pred{pred(symbolic.GT, 0, 0, 2)}
	if VerifyAssignment(pc, intMeta, map[symbolic.Var]int64{0: math.MaxInt64}, symbolic.Vector{}) {
		t.Error("overflowing multiplication accepted")
	}
	// -1 * MinInt64 is the one product the quotient check misses.
	pc = []symbolic.Pred{pred(symbolic.GT, 0, 0, -1)}
	if VerifyAssignment(pc, intMeta, map[symbolic.Var]int64{0: math.MinInt64}, symbolic.Vector{}) {
		t.Error("-1 * MinInt64 accepted")
	}
	// Sanity: the same shapes without overflow verify.
	pc = []symbolic.Pred{pred(symbolic.GT, 0, 0, 2)}
	if !VerifyAssignment(pc, intMeta, map[symbolic.Var]int64{0: 5}, symbolic.Vector{}) {
		t.Error("in-range candidate rejected")
	}
}

func TestSlicedSolveVerifiesAgainstFullPC(t *testing.T) {
	// End to end across the fast-path pieces: solve only the slice, then
	// check the full conjunction with the parent run's hint.
	pc := clusterPC()
	hint := map[symbolic.Var]int64{0: 7, 1: 5, 2: 20, 3: 0} // parent run: v0 >= 5 branch not yet flipped
	slice, _ := CanonicalSlice(pc)
	sol, verdict, _ := SolveWorkStats(slice, intMeta, symbolic.VectorOf(hint), 0)
	if verdict != Sat {
		t.Fatalf("slice verdict = %v, want sat", verdict)
	}
	if !VerifyAssignment(pc, intMeta, sol, symbolic.VectorOf(hint)) {
		t.Errorf("sliced solution %v (hint %v) fails the full conjunction", sol, hint)
	}
}

package solver

import (
	"testing"

	"dart/internal/symbolic"
)

// portableEnv is a tiny variable universe for key tests: names and
// domains indexed by Var.
type portableEnv struct {
	names []string
	metas []VarMeta
}

func (e portableEnv) name(v symbolic.Var) string { return e.names[v] }
func (e portableEnv) meta(v symbolic.Var) VarMeta {
	return e.metas[v]
}

func intMetaFor(lo, hi int64) VarMeta {
	return VarMeta{Kind: symbolic.ScalarVar, Lo: lo, Hi: hi}
}

// pred builds c + sum(coeff*var) rel 0.
func portablePred(rel symbolic.Rel, c int64, terms map[symbolic.Var]int64) symbolic.Pred {
	var ts []symbolic.Term
	for v, k := range terms {
		ts = append(ts, symbolic.Term{V: v, K: k})
	}
	return symbolic.Pred{L: symbolic.NewLin(c, ts...), Rel: rel}
}

// TestPortableKeyNumberingIndependent is the soundness property the
// persistent cache rests on: two searches that registered the same
// inputs in different first-use orders (different Var numbers, same
// names and domains) render the same solve to the same key.
func TestPortableKeyNumberingIndependent(t *testing.T) {
	// Search A: x = var 0, y = var 1.
	a := portableEnv{
		names: []string{"d0.x", "d0.y"},
		metas: []VarMeta{intMetaFor(-100, 100), intMetaFor(-100, 100)},
	}
	// Search B: y = var 0, x = var 1.
	b := portableEnv{
		names: []string{"d0.y", "d0.x"},
		metas: []VarMeta{intMetaFor(-100, 100), intMetaFor(-100, 100)},
	}
	// x + 2y - 7 == 0 in both numberings, with hint x=3, y=2.
	pcA := []symbolic.Pred{portablePred(symbolic.EQ, -7, map[symbolic.Var]int64{0: 1, 1: 2})}
	pcB := []symbolic.Pred{portablePred(symbolic.EQ, -7, map[symbolic.Var]int64{1: 1, 0: 2})}
	hintA := map[symbolic.Var]int64{0: 3, 1: 2}
	hintB := map[symbolic.Var]int64{1: 3, 0: 2}

	ka := PortableKey(pcA, symbolic.VectorOf(hintA), DefaultWork, a.name, a.meta)
	kb := PortableKey(pcB, symbolic.VectorOf(hintB), DefaultWork, b.name, b.meta)
	if ka != kb {
		t.Errorf("same semantic solve rendered to different portable keys:\n  %s\n  %s", ka, kb)
	}
}

func TestPortableKeyDiscriminates(t *testing.T) {
	env := portableEnv{
		names: []string{"d0.x"},
		metas: []VarMeta{intMetaFor(-100, 100)},
	}
	pc := []symbolic.Pred{portablePred(symbolic.EQ, -7, map[symbolic.Var]int64{0: 1})}
	hint := map[symbolic.Var]int64{0: 3}
	base := PortableKey(pc, symbolic.VectorOf(hint), DefaultWork, env.name, env.meta)

	// A different domain for the same name must change the key: the
	// solver's answer depends on it.
	narrow := portableEnv{
		names: []string{"d0.x"},
		metas: []VarMeta{intMetaFor(0, 5)},
	}
	if k := PortableKey(pc, symbolic.VectorOf(hint), DefaultWork, narrow.name, narrow.meta); k == base {
		t.Error("portable key ignored the variable domain")
	}
	// A different budget must change the key: BudgetExhausted verdicts
	// are budget-relative.
	if k := PortableKey(pc, symbolic.VectorOf(hint), DefaultWork/2, env.name, env.meta); k == base {
		t.Error("portable key ignored the work budget")
	}
	// A different hint must change the key, like CacheKey.
	if k := PortableKey(pc, symbolic.VectorOf(map[symbolic.Var]int64{0: 4}), DefaultWork, env.name, env.meta); k == base {
		t.Error("portable key ignored the hint")
	}
	// A different predicate must change the key.
	pc2 := []symbolic.Pred{portablePred(symbolic.EQ, -8, map[symbolic.Var]int64{0: 1})}
	if k := PortableKey(pc2, symbolic.VectorOf(hint), DefaultWork, env.name, env.meta); k == base {
		t.Error("portable key ignored the predicate")
	}
}

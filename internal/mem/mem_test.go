package mem

import (
	"errors"
	"testing"

	"dart/internal/symbolic"
)

func TestGlobalsZeroFilled(t *testing.T) {
	m := New()
	base := m.MapGlobals(4)
	for i := int64(0); i < 4; i++ {
		v, err := m.Load(base + i)
		if err != nil || v != 0 {
			t.Fatalf("cell %d: v=%d err=%v", i, v, err)
		}
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	base := m.MapGlobals(2)
	if err := m.Store(base, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(base)
	if err != nil || v != 42 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestNullDereference(t *testing.T) {
	m := New()
	if _, err := m.Load(0); err == nil {
		t.Fatal("NULL read did not fault")
	} else {
		var f *Fault
		if !errors.As(err, &f) || f.Kind != LoadFault {
			t.Fatalf("wrong fault: %v", err)
		}
	}
	if err := m.Store(0, 1); err == nil {
		t.Fatal("NULL write did not fault")
	}
}

func TestUnmappedAccess(t *testing.T) {
	m := New()
	base, err := m.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	// Within the region: fine.
	if _, err := m.Load(base + 1); err != nil {
		t.Fatal(err)
	}
	// One past the end: guard gap faults (heap overflow detection).
	if _, err := m.Load(base + 2); err == nil {
		t.Fatal("overflow read did not fault")
	}
	if err := m.Store(base+2, 9); err == nil {
		t.Fatal("overflow write did not fault")
	}
}

func TestAllocDistinct(t *testing.T) {
	m := New()
	a, _ := m.Alloc(1)
	b, _ := m.Alloc(1)
	if a == b {
		t.Fatal("two allocations share an address")
	}
	if a == 0 || b == 0 {
		t.Fatal("allocation returned NULL")
	}
}

func TestAllocZeroSize(t *testing.T) {
	m := New()
	a, err := m.Alloc(0)
	if err != nil || a == 0 {
		t.Fatalf("malloc(0): a=%d err=%v", a, err)
	}
	b, _ := m.Alloc(0)
	if a == b {
		t.Fatal("malloc(0) results should be distinct")
	}
}

func TestAllocNegative(t *testing.T) {
	m := New()
	if _, err := m.Alloc(-1); err == nil {
		t.Fatal("negative allocation should fail")
	}
}

func TestFree(t *testing.T) {
	m := New()
	a, _ := m.Alloc(3)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(a); err == nil {
		t.Fatal("use after free did not fault")
	}
	if err := m.Free(a); err == nil {
		t.Fatal("double free did not fault")
	}
	if err := m.Free(0); err != nil {
		t.Fatalf("free(NULL) must be a no-op, got %v", err)
	}
	if err := m.Free(12345); err == nil {
		t.Fatal("freeing a wild pointer did not fault")
	}
	// Freeing an interior pointer is a fault too.
	b, _ := m.Alloc(3)
	if err := m.Free(b + 1); err == nil {
		t.Fatal("freeing an interior pointer did not fault")
	}
}

func TestFrames(t *testing.T) {
	m := New()
	f1 := m.PushFrame(4)
	if err := m.Store(f1+3, 7); err != nil {
		t.Fatal(err)
	}
	f2 := m.PushFrame(2)
	if f2 <= f1 {
		t.Fatal("frames should grow upward")
	}
	m.PopFrame(f2, 2)
	if _, err := m.Load(f2); err == nil {
		t.Fatal("popped frame still accessible")
	}
	// Pushing again reuses the address space, zero-filled.
	f3 := m.PushFrame(2)
	if f3 != f2 {
		t.Fatalf("expected frame address reuse: %d vs %d", f3, f2)
	}
	v, err := m.Load(f3)
	if err != nil || v != 0 {
		t.Fatalf("recycled frame not zeroed: v=%d err=%v", v, err)
	}
	m.PopFrame(f3, 2)
	m.PopFrame(f1, 4)
}

func TestRegionsDisjoint(t *testing.T) {
	m := New()
	g := m.MapGlobals(10)
	f := m.PushFrame(10)
	h, _ := m.Alloc(10)
	if !(g < f && f < h) {
		t.Fatalf("layout order violated: g=%d f=%d h=%d", g, f, h)
	}
}

func TestLiveRegions(t *testing.T) {
	m := New()
	a, _ := m.Alloc(1)
	b, _ := m.Alloc(1)
	c, _ := m.Alloc(4)
	if m.LiveRegions() != 3 {
		t.Fatalf("live = %d", m.LiveRegions())
	}
	_ = m.Free(b)
	if m.LiveRegions() != 2 {
		t.Fatalf("live = %d after free", m.LiveRegions())
	}
	// A faulting free (double free) must not move the count.
	_ = m.Free(b)
	if m.LiveRegions() != 2 {
		t.Fatalf("live = %d after double free", m.LiveRegions())
	}
	_ = m.Free(a)
	_ = m.Free(c)
	if m.LiveRegions() != 0 {
		t.Fatalf("live = %d after freeing everything", m.LiveRegions())
	}
	_, _ = m.Alloc(2)
	_, _ = m.Alloc(2)
	m.Reset()
	if m.LiveRegions() != 0 {
		t.Fatalf("live = %d after Reset", m.LiveRegions())
	}
	if _, err := m.Alloc(1); err != nil || m.LiveRegions() != 1 {
		t.Fatalf("live = %d after Alloc following Reset (err %v)", m.LiveRegions(), err)
	}
}

// TestFreeFaults pins the region table's fault cases: every bad free
// is a FreeFault at the freed address, and none disturbs a live region.
func TestFreeFaults(t *testing.T) {
	m := New()
	a, _ := m.Alloc(3)
	b, _ := m.Alloc(3)
	stale, _ := m.Alloc(2)
	wantFreeFault := func(what string, addr int64) {
		t.Helper()
		err := m.Free(addr)
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FreeFault || f.Addr != addr {
			t.Errorf("%s: Free(%d) = %v, want a FreeFault at %d", what, addr, err, addr)
		}
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	wantFreeFault("double free", a)
	wantFreeFault("interior pointer", b+1)
	wantFreeFault("guard gap", b+3)
	wantFreeFault("below the first region", HeapBase-1)
	wantFreeFault("past the last region", m.heapNext)
	if _, err := m.Load(b); err != nil {
		t.Fatalf("live region disturbed by faulting frees: %v", err)
	}
	m.Reset()
	wantFreeFault("base from before Reset", stale)
	wantFreeFault("base from before Reset", b)
}

// TestStaleShadowInvisible checks that the taint bit alone decides
// whether a shadow slot is visible: after every way a cell stops being
// symbolic, LoadS and Shadow report no shadow even though the slot
// itself still holds the old form.
func TestStaleShadowInvisible(t *testing.T) {
	l := symbolic.NewVar(symbolic.Var(3))
	noShadow := func(what string, m *M, addr int64) {
		t.Helper()
		if s := m.Shadow(addr); s != nil {
			t.Errorf("%s: Shadow(%d) = %v, want nil", what, addr, s)
		}
		if v, s, err := m.LoadS(addr); err != nil || s != nil || v != 0 {
			t.Errorf("%s: LoadS(%d) = (%d, %v, %v), want (0, nil, nil)", what, addr, v, s, err)
		}
	}

	m := New()
	g := m.MapGlobals(4)
	m.SetShadow(g+1, l)
	if v, s, err := m.LoadS(g + 1); err != nil || s != l || v != 0 {
		t.Fatalf("live shadow: LoadS = (%d, %v, %v)", v, s, err)
	}
	if m.Shadow(g+1) != l {
		t.Fatal("live shadow not visible through Shadow")
	}
	m.ClearTaint(g + 1)
	noShadow("ClearTaint", m, g+1)

	f := m.PushFrame(4)
	m.SetShadow(f+2, l)
	m.PopFrame(f, 4)
	if m.Shadow(f+2) != nil {
		t.Error("popped frame's shadow visible")
	}
	if f2 := m.PushFrame(4); f2 != f {
		t.Fatalf("frame not pushed at the same base: %d vs %d", f2, f)
	}
	noShadow("PopFrame then PushFrame", m, f+2)

	h, _ := m.Alloc(3)
	m.SetShadow(h, l)
	if err := m.Free(h); err != nil {
		t.Fatal(err)
	}
	if m.Shadow(h) != nil {
		t.Error("freed region's shadow visible")
	}
	if _, _, err := m.LoadS(h); err == nil {
		t.Error("LoadS of a freed cell did not fault")
	}
	// The bump allocator hands the freed span out again only after
	// Reset; the re-allocated cells must come back concrete.
	m.SetShadow(g+2, l)
	m.Reset()
	if h2, _ := m.Alloc(3); h2 != h {
		t.Fatalf("span not reused after Reset: %d vs %d", h2, h)
	}
	noShadow("Free then Alloc", m, h)
	if g2 := m.MapGlobals(4); g2 != g {
		t.Fatalf("globals not remapped at the same base: %d vs %d", g2, g)
	}
	noShadow("Reset then MapGlobals", m, g+2)

	// Unmapped cells take no shadow at all.
	m.SetShadow(0, l)
	m.SetShadow(h+3, l)
	if m.Shadow(0) != nil || m.Shadow(h+3) != nil {
		t.Error("SetShadow on an unmapped address took effect")
	}
}

func TestFaultMessages(t *testing.T) {
	nullRead := &Fault{Kind: LoadFault, Addr: 0}
	if got := nullRead.Error(); got != "segmentation fault: NULL pointer invalid read" {
		t.Errorf("message %q", got)
	}
	wild := &Fault{Kind: StoreFault, Addr: 99}
	if got := wild.Error(); got != "segmentation fault: invalid write at address 99" {
		t.Errorf("message %q", got)
	}
}

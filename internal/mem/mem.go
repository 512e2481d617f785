// Package mem implements the RAM-machine memory M of Sec. 2.2: a mapping
// from addresses to word values, updated with M + [m -> v], together
// with the symbolic memory S that shadows it.
//
// The address space is partitioned into a global region, a stack of call
// frames, and a heap.  Only explicitly mapped cells are accessible;
// loads or stores elsewhere fault, which is how DART observes the crash
// bugs (NULL and wild pointer dereferences) of the oSIP experiment.
// Heap regions are separated by guard gaps so small overflows fault
// instead of silently landing in a neighboring object.
//
// Each of the three regions is a flat array of cells, a parallel shadow
// slice of symbolic forms (S, indexed by the same cell offset), and two
// bitmaps: "mapped" (is the cell accessible) and "taint" (does the
// cell's shadow slot hold a live symbolic value).  The taint bit is the
// only authority over the shadow: a slot is read only while its bit is
// set, so mapping, unmapping and Reset clear bits word-at-a-time and
// never touch the slots — a stale form under a clear bit is dead by
// construction.  The same bitmap lets the execution engine skip
// symbolic shadow evaluation for instructions whose operands are
// provably concrete: a load from an untainted cell can only produce a
// constant shadow.
package mem

import (
	"fmt"
	"sort"

	"dart/internal/symbolic"
)

// Address space layout (cell addresses).
const (
	GlobalBase = int64(1) << 20
	StackBase  = int64(1) << 24
	HeapBase   = int64(1) << 28

	// guardGap is the number of unmapped cells between heap regions.
	guardGap = 16
)

// FaultKind classifies a memory fault.
type FaultKind int

// Fault kinds.
const (
	LoadFault FaultKind = iota
	StoreFault
	FreeFault
	OOMFault
)

func (k FaultKind) String() string {
	switch k {
	case LoadFault:
		return "invalid read"
	case StoreFault:
		return "invalid write"
	case FreeFault:
		return "invalid free"
	case OOMFault:
		return "allocation failure"
	}
	return "memory fault"
}

// Fault is a memory access error; address 0 faults are NULL dereferences.
type Fault struct {
	Kind FaultKind
	Addr int64
}

func (f *Fault) Error() string {
	if f.Addr == 0 && (f.Kind == LoadFault || f.Kind == StoreFault) {
		return fmt.Sprintf("segmentation fault: NULL pointer %s", f.Kind)
	}
	return fmt.Sprintf("segmentation fault: %s at address %d", f.Kind, f.Addr)
}

// region is one contiguous slab of the address space.  vals holds cell
// values and shadow their symbolic forms (meaningful only under a set
// taint bit); mapped and taint are per-cell bitmaps (64 cells per word).
// Slices only ever grow (high-water mark); Reset zeroes the bitmaps but
// keeps the capacity so a pooled machine's N runs share one footprint.
type region struct {
	base   int64
	vals   []int64
	shadow []*symbolic.Lin
	mapped []uint64
	taint  []uint64
}

func words(cells int64) int64 { return (cells + 63) >> 6 }

func getBit(w []uint64, i int64) bool { return w[i>>6]&(1<<uint(i&63)) != 0 }
func setBit(w []uint64, i int64)      { w[i>>6] |= 1 << uint(i&63) }
func clearBit(w []uint64, i int64)    { w[i>>6] &^= 1 << uint(i&63) }

// setRange sets bits [lo, hi) word-at-a-time.
func setRange(w []uint64, lo, hi int64) {
	for i := lo; i < hi; {
		if i&63 == 0 && hi-i >= 64 {
			w[i>>6] = ^uint64(0)
			i += 64
			continue
		}
		setBit(w, i)
		i++
	}
}

// clearRange clears bits [lo, hi) word-at-a-time.
func clearRange(w []uint64, lo, hi int64) {
	for i := lo; i < hi; {
		if i&63 == 0 && hi-i >= 64 {
			w[i>>6] = 0
			i += 64
			continue
		}
		clearBit(w, i)
		i++
	}
}

// ensure grows the region's backing arrays to cover at least n cells.
func (r *region) ensure(n int64) {
	if int64(len(r.vals)) >= n {
		return
	}
	if int64(cap(r.vals)) >= n {
		r.vals = r.vals[:n]
		r.shadow = r.shadow[:n]
	} else {
		nv := make([]int64, n, n+n/2)
		copy(nv, r.vals)
		r.vals = nv
		ns := make([]*symbolic.Lin, n, n+n/2)
		copy(ns, r.shadow)
		r.shadow = ns
	}
	nw := words(int64(len(r.vals)))
	for int64(len(r.mapped)) < nw {
		r.mapped = append(r.mapped, 0)
	}
	for int64(len(r.taint)) < nw {
		r.taint = append(r.taint, 0)
	}
}

// mapRange makes cells [off, off+n) accessible, zero-filled and
// untainted.  Shadow slots keep whatever they held: the clear taint bits
// make them dead.
func (r *region) mapRange(off, n int64) {
	r.ensure(off + n)
	for i := off; i < off+n; i++ {
		r.vals[i] = 0
	}
	setRange(r.mapped, off, off+n)
	clearRange(r.taint, off, off+n)
}

// unmapRange makes cells [off, off+n) inaccessible and drops their
// taint (the shadow slots are left as they are, dead).
func (r *region) unmapRange(off, n int64) {
	clearRange(r.mapped, off, off+n)
	clearRange(r.taint, off, off+n)
}

// reset unmaps everything, keeping the high-water capacity.
func (r *region) reset() {
	for i := range r.mapped {
		r.mapped[i] = 0
	}
	for i := range r.taint {
		r.taint[i] = 0
	}
}

// M is the machine memory.
type M struct {
	global region
	stack  region
	heap   region

	globalNext int64
	stackNext  int64
	heapNext   int64

	// regions lists every heap region allocated since Reset in address
	// order (the heap is a bump allocator); a freed region keeps its
	// entry with size 0.  live counts the entries not yet freed.
	regions []heapRegion
	live    int
}

// heapRegion is one allocation: its base address and size in cells
// (0 once freed).
type heapRegion struct{ base, size int64 }

// New returns an empty memory.
func New() *M {
	return &M{
		global:     region{base: GlobalBase},
		stack:      region{base: StackBase},
		heap:       region{base: HeapBase},
		globalNext: GlobalBase,
		stackNext:  StackBase,
		heapNext:   HeapBase,
	}
}

// Reset unmaps everything — globals, frames, heap regions, and all taint
// bits — restoring the address allocators, while keeping the backing
// arrays' capacity so a pooled machine reuses one allocation footprint.
// Shadow slots are not cleared: with every taint bit down they are dead.
func (m *M) Reset() {
	m.global.reset()
	m.stack.reset()
	m.heap.reset()
	m.globalNext = GlobalBase
	m.stackNext = StackBase
	m.heapNext = HeapBase
	m.regions = m.regions[:0]
	m.live = 0
}

// locate resolves addr to its region and cell offset; ok is false when
// the address lies outside every region's mapped span.
func (m *M) locate(addr int64) (r *region, off int64, ok bool) {
	switch {
	case addr >= HeapBase:
		r, off = &m.heap, addr-HeapBase
	case addr >= StackBase:
		r, off = &m.stack, addr-StackBase
	case addr >= GlobalBase:
		r, off = &m.global, addr-GlobalBase
	default:
		return nil, 0, false
	}
	if off >= int64(len(r.vals)) || !getBit(r.mapped, off) {
		return nil, 0, false
	}
	return r, off, true
}

// MapGlobals maps the global region of the given size (zero-filled) and
// returns its base address.
func (m *M) MapGlobals(size int64) int64 {
	base := m.globalNext
	m.global.mapRange(base-GlobalBase, size)
	m.globalNext += size + guardGap
	return base
}

// PushFrame maps a fresh zero-filled call frame and returns its base.
func (m *M) PushFrame(size int64) int64 {
	base := m.stackNext
	if base+size >= HeapBase {
		// The machine's call-depth limit trips long before 16M stack
		// cells; running past the heap base would alias regions.
		panic("mem: stack region exhausted")
	}
	m.stack.mapRange(base-StackBase, size)
	m.stackNext += size + guardGap
	return base
}

// PopFrame unmaps the topmost frame previously pushed at base.
func (m *M) PopFrame(base, size int64) {
	m.stack.unmapRange(base-StackBase, size)
	m.stackNext = base
}

// Alloc maps a heap region of size cells (zero-filled, matching calloc-ish
// determinism so runs are reproducible) and returns its base address.
// Size 0 yields a unique 1-cell region, as malloc(0) may.
func (m *M) Alloc(size int64) (int64, error) {
	if size < 0 {
		return 0, &Fault{Kind: OOMFault, Addr: size}
	}
	if size == 0 {
		size = 1
	}
	base := m.heapNext
	m.heap.mapRange(base-HeapBase, size)
	m.heapNext += size + guardGap
	m.regions = append(m.regions, heapRegion{base: base, size: size})
	m.live++
	return base, nil
}

// Free unmaps the heap region at base. Freeing NULL is a no-op; freeing
// anything that is not a live region base is a fault (double free or
// interior pointer).
func (m *M) Free(base int64) error {
	if base == 0 {
		return nil
	}
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].base >= base })
	if i == len(m.regions) || m.regions[i].base != base || m.regions[i].size == 0 {
		return &Fault{Kind: FreeFault, Addr: base}
	}
	m.heap.unmapRange(base-HeapBase, m.regions[i].size)
	m.regions[i].size = 0
	m.live--
	return nil
}

// Load reads the cell at addr.
func (m *M) Load(addr int64) (int64, error) {
	r, off, ok := m.locate(addr)
	if !ok {
		return 0, &Fault{Kind: LoadFault, Addr: addr}
	}
	return r.vals[off], nil
}

// LoadS reads the cell at addr together with its symbolic shadow, in
// one address decode — the hot-path entry for the execution engines.
// The shadow is nil unless the cell's taint bit is set.
func (m *M) LoadS(addr int64) (v int64, sym *symbolic.Lin, err error) {
	r, off, ok := m.locate(addr)
	if !ok {
		return 0, nil, &Fault{Kind: LoadFault, Addr: addr}
	}
	if getBit(r.taint, off) {
		sym = r.shadow[off]
	}
	return r.vals[off], sym, nil
}

// Store writes v to the cell at addr.
func (m *M) Store(addr, v int64) error {
	r, off, ok := m.locate(addr)
	if !ok {
		return &Fault{Kind: StoreFault, Addr: addr}
	}
	r.vals[off] = v
	return nil
}

// SetShadow records l as the live symbolic shadow of the mapped cell at
// addr and sets its taint bit.  Unmapped addresses are ignored (the
// paired Store faulted first).
func (m *M) SetShadow(addr int64, l *symbolic.Lin) {
	if r, off, ok := m.locate(addr); ok {
		r.shadow[off] = l
		setBit(r.taint, off)
	}
}

// Shadow returns the live symbolic shadow of the cell at addr, or nil
// when the cell is unmapped or concrete.
func (m *M) Shadow(addr int64) *symbolic.Lin {
	if r, off, ok := m.locate(addr); ok && getBit(r.taint, off) {
		return r.shadow[off]
	}
	return nil
}

// ClearTaint marks the cell at addr as concrete; its shadow slot becomes
// dead.
func (m *M) ClearTaint(addr int64) {
	if r, off, ok := m.locate(addr); ok {
		clearBit(r.taint, off)
	}
}

// Mapped reports whether addr is currently accessible.
func (m *M) Mapped(addr int64) bool {
	_, _, ok := m.locate(addr)
	return ok
}

// LiveRegions returns the number of live heap regions (for leak stats).
func (m *M) LiveRegions() int { return m.live }

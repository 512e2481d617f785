package symbolic

import "slices"

// Vector is an assignment dense over variable ids: v's value is vals[v]
// where bit v of set is on, and v is unassigned otherwise.  The directed
// search keeps its input vector IM in one, and the solver reads that
// same Vector as its hint, without copying and without writing to it.
type Vector struct {
	vals []int64
	set  []uint64
}

// VectorOf builds a Vector from a sparse assignment.
func VectorOf(m map[Var]int64) Vector {
	var x Vector
	for v, val := range m {
		x.Set(v, val)
	}
	return x
}

// Len bounds the assigned ids: every assigned variable is below it.
func (x *Vector) Len() int { return len(x.vals) }

// Get returns v's value and whether v is assigned.
func (x *Vector) Get(v Var) (int64, bool) {
	if v < 0 || int(v) >= len(x.vals) || x.set[v>>6]&(1<<(uint(v)&63)) == 0 {
		return 0, false
	}
	return x.vals[v], true
}

// Value returns v's value, zero when unassigned.
func (x *Vector) Value(v Var) int64 {
	val, _ := x.Get(v)
	return val
}

// Set assigns val to v.
func (x *Vector) Set(v Var, val int64) {
	for int(v) >= len(x.vals) {
		x.vals = append(x.vals, 0)
	}
	for int(v)>>6 >= len(x.set) {
		x.set = append(x.set, 0)
	}
	x.vals[v] = val
	x.set[v>>6] |= 1 << (uint(v) & 63)
}

// Reset unassigns every variable, keeping the storage.
func (x *Vector) Reset() { x.vals, x.set = x.vals[:0], x.set[:0] }

// Clone returns an independent copy.
func (x *Vector) Clone() Vector {
	return Vector{vals: slices.Clone(x.vals), set: slices.Clone(x.set)}
}

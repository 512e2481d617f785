package machine

import (
	"fmt"

	"dart/internal/ir"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// Slot is one node of a machine's input-slot tree: an input location
// named by a root — a toplevel argument, an extern global, or one
// external-call result — and a path of field, dereference and index
// steps below it.  The tree is interned per machine and survives Reset,
// so a search renders each slot's portable key once, when the slot is
// first reached, and binds its symbolic variable once; every later run
// walks the cached nodes without building or hashing a string.
type Slot struct {
	// Key is the slot's portable input name: the root ("d0.msg",
	// "g:config", "ext:sensor#0") followed by ".field", ".*" and "[i]"
	// steps.  It is the name input vectors carry across every boundary
	// (bug reports, corpus suites, solve logs, replay).  A root slot is
	// just &Slot{Key: root}.
	Key string

	v     symbolic.Var
	sym   bool // v is meaningful: the source tracks symbolic state
	bound bool // VarOf was consulted for this slot
	kids  []*Slot
}

// Var returns the symbolic variable the machine's input source bound to
// the slot (false when the source tracks no symbolic state).  A source's
// ScalarInput and PointerInput run after the binding.
func (s *Slot) Var() (symbolic.Var, bool) { return s.v, s.sym }

// kid returns child i of n, reporting whether it was just created (and
// still needs its key).
func (s *Slot) kid(i, n int) (*Slot, bool) {
	if s.kids == nil {
		s.kids = make([]*Slot, n)
	}
	if k := s.kids[i]; k != nil {
		return k, false
	}
	k := &Slot{}
	s.kids[i] = k
	return k, true
}

func (s *Slot) deref() *Slot {
	k, fresh := s.kid(0, 1)
	if fresh {
		k.Key = s.Key + ".*"
	}
	return k
}

func (s *Slot) field(t *types.Struct, i int) *Slot {
	k, fresh := s.kid(i, len(t.Fields))
	if fresh {
		k.Key = s.Key + "." + t.Fields[i].Name
	}
	return k
}

func (s *Slot) index(t *types.Array, i int64) *Slot {
	k, fresh := s.kid(int(i), int(t.Len))
	if fresh {
		k.Key = fmt.Sprintf("%s[%d]", s.Key, i)
	}
	return k
}

// extInputs numbers one external function's calls within a run and
// keeps the root slot of each call's result across runs.
type extInputs struct {
	n     int
	slots []*Slot
}

// extSlot returns the root slot of external function fn's next call in
// this run ("ext:fn#n"), advancing the call count.
func (m *Machine) extSlot(fn string) *Slot {
	x := m.ext[fn]
	if x == nil {
		x = &extInputs{}
		m.ext[fn] = x
	}
	n := x.n
	x.n++
	if n == len(x.slots) {
		x.slots = append(x.slots, &Slot{Key: fmt.Sprintf("ext:%s#%d", fn, n)})
	}
	return x.slots[n]
}

// argKey is the portable root name of toplevel parameter i (named name,
// possibly "") at driver call d: "d<d>.<name>", or "d<d>.arg<i>" for an
// unnamed parameter.
func argKey(d, i int, name string) string {
	if name == "" {
		name = fmt.Sprintf("arg%d", i)
	}
	return fmt.Sprintf("d%d.%s", d, name)
}

// InitArgs is the generated test driver's argument set-up for call d of
// fn (Fig. 7): each parameter gets a fresh cell initialized by
// RandomInit at its argument root slot, and args[i] receives the cell's
// value with its symbolic shadow.
func (m *Machine) InitArgs(fn *ir.Func, d int, args []Value) error {
	if m.argFn != fn {
		m.argFn, m.argSlots = fn, nil
	}
	for len(m.argSlots) <= d {
		roots := make([]*Slot, len(fn.Params))
		for i, p := range fn.Params {
			roots[i] = &Slot{Key: argKey(len(m.argSlots), i, p.Name)}
		}
		m.argSlots = append(m.argSlots, roots)
	}
	for i, p := range fn.Params {
		cell, err := m.mem.Alloc(1)
		if err != nil {
			return err
		}
		if err := m.RandomInit(cell, p.Type, m.argSlots[d][i]); err != nil {
			return err
		}
		if args[i], err = m.ArgValue(cell); err != nil {
			return err
		}
	}
	return nil
}

// slotVar returns the symbolic variable of the input at s, consulting
// the source once per slot: bindings are cached on the machine's slot
// tree, so every source a machine is Reset with must number inputs
// alike (a search's sources share one registry).
func (m *Machine) slotVar(s *Slot, kind symbolic.VarKind, b *types.Basic) (symbolic.Var, bool) {
	if !s.bound {
		s.v, s.sym = m.inputs.VarOf(s.Key, kind, b)
		s.bound = true
		if s.sym && kind == symbolic.PointerVar {
			m.growVars(s.v)
			m.pointerVars[s.v] = true
		}
	}
	return s.v, s.sym
}

// growVars extends the per-variable slices to cover v.
func (m *Machine) growVars(v symbolic.Var) {
	if n := int(v) + 1; n > len(m.varLins) {
		m.varLins = append(m.varLins, make([]*symbolic.Lin, n-len(m.varLins))...)
		m.pointerVars = append(m.pointerVars, make([]bool, n-len(m.pointerVars))...)
		m.decided = append(m.decided, make([]bool, n-len(m.decided))...)
	}
}

// varLin returns the interned form 1·v + 0.  A search's runs
// re-initialize the same inputs thousands of times and the form is a
// pure function of the Var, so the cache survives Reset.
func (m *Machine) varLin(v symbolic.Var) *symbolic.Lin {
	m.growVars(v)
	l := m.varLins[v]
	if l == nil {
		l = m.lins.NewVar(v)
		m.varLins[v] = l
	}
	return l
}

// isPointerVar reports whether v stands for a pointer input of this
// machine.  The machine uses it for the pointer-dereference refinement
// of Sec. 2.3: an address that depends only on pointer-shape inputs is
// definite once the shapes are fixed, so dereferencing it stays within
// the theory instead of clearing all_locs_definite.
func (m *Machine) isPointerVar(v symbolic.Var) bool {
	return int(v) < len(m.pointerVars) && m.pointerVars[v]
}

// Package sema resolves names and type-checks MiniC programs.
//
// The result of checking is a Program: struct layouts, ordered globals,
// and functions with resolved parameter/local objects.  Sema also
// classifies functions the way Sec. 3.1 of the paper does: program
// functions (defined in the file), external functions (extern, controlled
// by the environment, simulated with random values), and library
// functions (known to the tool, executed as deterministic black boxes).
package sema

import (
	"fmt"

	"dart/internal/ast"
	"dart/internal/token"
	"dart/internal/types"
)

// Error is a semantic error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// ObjKind classifies a resolved object.
type ObjKind int

// Object kinds.
const (
	GlobalObj ObjKind = iota
	LocalObj
	ParamObj
)

// Object is a resolved variable.
type Object struct {
	Name string
	Kind ObjKind
	Type types.Type
	// Index is the object's slot: position in Program.Globals for
	// globals, or the frame slot offset (in cells) for params/locals.
	Index int64
	// Extern marks environment-controlled globals (program inputs).
	Extern bool
	// Init is the global initializer expression, if any.
	Init ast.Expr
	// InitVal is the evaluated constant initializer; valid when HasInit.
	InitVal int64
	HasInit bool
}

// Function is a checked function.
type Function struct {
	Name   string
	Sig    *types.Func
	Params []*Object
	Locals []*Object // declaration order; params first, then locals
	Decl   *ast.FuncDecl
	Extern bool
	// FrameSize is the total frame size in cells (params + locals).
	FrameSize int64
}

// Program is the checked representation consumed by the IR compiler, the
// interface extractor, and the random-driver generator.
type Program struct {
	Structs map[string]*types.Struct
	Globals []*Object
	// GlobalsByName indexes Globals.
	GlobalsByName map[string]*Object
	// Funcs holds program and external functions by name.
	Funcs map[string]*Function
	// FuncOrder is the source order of function declarations.
	FuncOrder []string
	// Lib is the set of library (black-box) function signatures that the
	// program may call; supplied by the caller of Check.
	Lib map[string]*types.Func
	// Uses maps identifier nodes to their resolved objects.
	Uses map[*ast.Ident]*Object
	// DeclObjs maps local declaration statements to their objects.
	DeclObjs map[*ast.DeclStmt]*Object
	File     *ast.File
}

// Builtin signatures always available to MiniC programs.  abort and
// assert are the error-reporting primitives of the paper; malloc models
// heap allocation (Sec. 3.2).
func builtinSigs() map[string]*types.Func {
	return map[string]*types.Func{
		"abort": {Params: nil, Result: types.VoidType},
		"halt":  {Params: nil, Result: types.VoidType},
		"assert": {
			Params: []types.Type{types.IntType},
			Result: types.VoidType,
		},
		"malloc": {
			Params: []types.Type{types.IntType},
			Result: &types.Pointer{Elem: types.CharType},
		},
		"free": {
			Params: []types.Type{&types.Pointer{Elem: types.CharType}},
			Result: types.VoidType,
		},
	}
}

// Check resolves and type-checks the file.  lib supplies signatures for
// library functions implemented by the host (deterministic black boxes);
// it may be nil.
func Check(file *ast.File, lib map[string]*types.Func) (*Program, error) {
	c := &checker{
		prog: &Program{
			Structs:       map[string]*types.Struct{},
			GlobalsByName: map[string]*Object{},
			Funcs:         map[string]*Function{},
			Lib:           map[string]*types.Func{},
			Uses:          map[*ast.Ident]*Object{},
			DeclObjs:      map[*ast.DeclStmt]*Object{},
			File:          file,
		},
		builtins: builtinSigs(),
	}
	for name, sig := range lib {
		c.prog.Lib[name] = sig
	}
	c.collectStructs(file)
	c.collectGlobalsAndFuncs(file)
	c.checkBodies(file)
	if len(c.errs) > 0 {
		return c.prog, c.errs
	}
	return c.prog, nil
}

type checker struct {
	prog     *Program
	builtins map[string]*types.Func
	errs     ErrorList

	// Per-function state.
	fn *Function
	// scopes lists, per open block, the names the block declared; bound
	// maps each name to its declarations in open blocks, innermost last,
	// so a lookup costs the same at any nesting depth.
	scopes [][]string
	bound  map[string][]binding
	loops  int
	// switches tracks switch nesting: break binds to the nearest loop or
	// switch, continue only to loops.
	switches int
	// frameNext is the next free frame slot while checking the current
	// function; block-scoped locals each get a distinct slot (no reuse),
	// which keeps symbolic addresses stable across paths.
	frameNext int64
}

const maxErrors = 25

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	if len(c.errs) < maxErrors {
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// ------------------------------------------------------------ collection

// collectStructs creates (possibly incomplete) struct identities first so
// that pointer-to-struct fields may refer forward, then completes them.
func (c *checker) collectStructs(file *ast.File) {
	for _, d := range file.Decls {
		if sd, ok := d.(*ast.StructDecl); ok {
			if _, dup := c.prog.Structs[sd.Name]; dup {
				c.errorf(sd.TokPos, "struct %s redeclared", sd.Name)
				continue
			}
			c.prog.Structs[sd.Name] = &types.Struct{Name: sd.Name}
		}
	}
	for _, d := range file.Decls {
		sd, ok := d.(*ast.StructDecl)
		if !ok {
			continue
		}
		st := c.prog.Structs[sd.Name]
		if st.Complete {
			continue
		}
		var fields []types.Field
		seen := map[string]bool{}
		for _, f := range sd.Fields {
			if seen[f.Name] {
				c.errorf(sd.TokPos, "duplicate field %s in struct %s", f.Name, sd.Name)
				continue
			}
			seen[f.Name] = true
			ft := c.resolveType(f.Spec)
			if s, ok := ft.(*types.Struct); ok && !s.Complete {
				c.errorf(f.Spec.Pos(), "field %s has incomplete type %s (use a pointer)", f.Name, s)
				ft = types.IntType
			}
			fields = append(fields, types.Field{Name: f.Name, Type: ft})
		}
		st.SetFields(fields)
	}
}

func (c *checker) collectGlobalsAndFuncs(file *ast.File) {
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			if c.lookupTop(d.Name) != nil || c.prog.Funcs[d.Name] != nil {
				c.errorf(d.TokPos, "%s redeclared", d.Name)
				continue
			}
			t := c.resolveType(d.Spec)
			if types.IsVoid(t) {
				c.errorf(d.TokPos, "variable %s has void type", d.Name)
				t = types.IntType
			}
			obj := &Object{
				Name:   d.Name,
				Kind:   GlobalObj,
				Type:   t,
				Index:  int64(len(c.prog.Globals)),
				Extern: d.Extern,
				Init:   d.Init,
			}
			c.prog.Globals = append(c.prog.Globals, obj)
			c.prog.GlobalsByName[d.Name] = obj
		case *ast.FuncDecl:
			c.collectFunc(d)
		}
	}
}

func (c *checker) lookupTop(name string) *Object { return c.prog.GlobalsByName[name] }

func (c *checker) collectFunc(d *ast.FuncDecl) {
	if c.prog.GlobalsByName[d.Name] != nil {
		c.errorf(d.TokPos, "%s redeclared as function", d.Name)
		return
	}
	if _, isBuiltin := c.builtins[d.Name]; isBuiltin {
		c.errorf(d.TokPos, "%s is a builtin and cannot be redefined", d.Name)
		return
	}
	sig := &types.Func{Result: c.resolveType(d.Result)}
	if !types.IsScalar(sig.Result) && !types.IsVoid(sig.Result) {
		c.errorf(d.TokPos, "function %s must return a scalar, pointer, or void (return structs by pointer)", d.Name)
		sig.Result = types.IntType
	}
	var params []*Object
	slot := int64(0)
	for i, prm := range d.Params {
		pt := c.resolveType(prm.Spec)
		pt = decay(pt)
		if !types.IsScalar(pt) {
			c.errorf(d.TokPos, "parameter %d of %s: only scalar and pointer parameters are supported (pass structs by pointer)", i+1, d.Name)
			pt = types.IntType
		}
		sig.Params = append(sig.Params, pt)
		name := prm.Name
		if name == "" {
			name = fmt.Sprintf("$arg%d", i)
		}
		params = append(params, &Object{Name: name, Kind: ParamObj, Type: pt, Index: slot})
		slot += pt.Size()
	}
	if prev, ok := c.prog.Funcs[d.Name]; ok {
		// A prototype may precede the definition; signatures must match
		// and at most one body may exist.
		if !types.Identical(prev.Sig, sig) {
			c.errorf(d.TokPos, "conflicting declarations of %s: %s vs %s", d.Name, prev.Sig, sig)
			return
		}
		if prev.Decl.Body != nil && d.Body != nil {
			c.errorf(d.TokPos, "function %s redefined", d.Name)
			return
		}
		if d.Body != nil || d.Extern {
			prev.Decl = d
			prev.Extern = d.Extern
			prev.Params = params
		}
		return
	}
	if _, isLib := c.prog.Lib[d.Name]; isLib && d.Body != nil {
		c.errorf(d.TokPos, "function %s shadows a library function", d.Name)
		return
	}
	fn := &Function{Name: d.Name, Sig: sig, Params: params, Decl: d, Extern: d.Extern}
	c.prog.Funcs[d.Name] = fn
	c.prog.FuncOrder = append(c.prog.FuncOrder, d.Name)
}

// ------------------------------------------------------------ types

func decay(t types.Type) types.Type {
	if a, ok := t.(*types.Array); ok {
		return &types.Pointer{Elem: a.Elem}
	}
	return t
}

func (c *checker) resolveType(spec ast.TypeSpec) types.Type {
	switch s := spec.(type) {
	case *ast.BasicSpec:
		switch s.Kind {
		case types.Void:
			return types.VoidType
		case types.Int:
			return types.IntType
		case types.Char:
			return types.CharType
		case types.Long:
			return types.LongType
		case types.UInt:
			return types.UIntType
		}
	case *ast.PointerSpec:
		return &types.Pointer{Elem: c.resolveType(s.Elem)}
	case *ast.StructSpec:
		if st, ok := c.prog.Structs[s.Name]; ok {
			return st
		}
		c.errorf(s.TokPos, "undefined struct %s", s.Name)
		st := &types.Struct{Name: s.Name}
		st.SetFields(nil)
		c.prog.Structs[s.Name] = st
		return st
	case *ast.ArraySpec:
		elem := c.resolveType(s.Elem)
		n, ok := c.constValue(s.Len)
		if !ok || n <= 0 {
			c.errorf(s.TokPos, "array length must be a positive constant")
			n = 1
		}
		return &types.Array{Elem: elem, Len: n}
	}
	return types.IntType
}

// constValue evaluates a constant integer expression (literals, sizeof,
// unary minus, and arithmetic over constants).
func (c *checker) constValue(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.SizeofType:
		return c.resolveType(e.Of).Size(), true
	case *ast.Unary:
		if v, ok := c.constValue(e.X); ok {
			switch e.Op {
			case token.MINUS:
				return -v, true
			case token.TILDE:
				return ^v, true
			case token.NOT:
				if v == 0 {
					return 1, true
				}
				return 0, true
			}
		}
	case *ast.Binary:
		x, okx := c.constValue(e.X)
		y, oky := c.constValue(e.Y)
		if okx && oky {
			switch e.Op {
			case token.PLUS:
				return x + y, true
			case token.MINUS:
				return x - y, true
			case token.STAR:
				return x * y, true
			case token.SLASH:
				if y != 0 {
					return x / y, true
				}
			case token.PERCENT:
				if y != 0 {
					return x % y, true
				}
			case token.SHL:
				if y >= 0 && y < 64 {
					return x << uint(y), true
				}
			case token.SHR:
				if y >= 0 && y < 64 {
					return x >> uint(y), true
				}
			}
		}
	}
	return 0, false
}

// ------------------------------------------------------------ bodies

func (c *checker) checkBodies(file *ast.File) {
	// Check global initializers are constant.
	for _, g := range c.prog.Globals {
		if g.Init != nil {
			if g.Extern {
				c.errorf(g.Init.Pos(), "extern variable %s cannot have an initializer", g.Name)
			}
			c.pushScope()
			c.checkExpr(g.Init)
			c.popScope()
			if v, ok := c.constValue(g.Init); ok {
				if !types.IsScalar(g.Type) {
					c.errorf(g.Init.Pos(), "only scalar globals may have initializers")
				}
				g.InitVal = v
				g.HasInit = true
			} else {
				c.errorf(g.Init.Pos(), "global initializer for %s must be a constant expression", g.Name)
			}
		}
	}
	for _, name := range c.prog.FuncOrder {
		fn := c.prog.Funcs[name]
		if fn.Extern {
			if !types.IsScalar(fn.Sig.Result) && !types.IsVoid(fn.Sig.Result) {
				c.errorf(fn.Decl.TokPos, "external function %s must return a scalar, pointer, or void", name)
			}
			continue
		}
		if fn.Decl.Body == nil {
			c.errorf(fn.Decl.TokPos, "function %s declared but never defined (mark it extern to treat it as an environment input)", name)
			continue
		}
		c.checkFunc(fn)
	}
}

func (c *checker) checkFunc(fn *Function) {
	c.fn = fn
	c.scopes = nil
	c.bound = map[string][]binding{}
	c.loops = 0
	c.switches = 0
	c.pushScope()
	slot := int64(0)
	for _, p := range fn.Params {
		c.declare(p, fn.Decl.TokPos)
		fn.Locals = append(fn.Locals, p)
		slot += p.Type.Size()
	}
	c.frameNext = slot
	c.checkBlock(fn.Decl.Body)
	c.popScope()
	fn.FrameSize = c.frameNext
	c.fn = nil
}

// binding is one declaration of a name: the object and the depth of
// the block that declared it.
type binding struct {
	obj   *Object
	depth int
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, nil) }

func (c *checker) popScope() {
	top := len(c.scopes) - 1
	for _, name := range c.scopes[top] {
		b := c.bound[name]
		c.bound[name] = b[:len(b)-1]
	}
	c.scopes = c.scopes[:top]
}

func (c *checker) declare(obj *Object, pos token.Pos) {
	depth := len(c.scopes)
	b := c.bound[obj.Name]
	if len(b) > 0 && b[len(b)-1].depth == depth {
		c.errorf(pos, "%s redeclared in this block", obj.Name)
		return
	}
	c.bound[obj.Name] = append(b, binding{obj, depth})
	c.scopes[depth-1] = append(c.scopes[depth-1], obj.Name)
}

func (c *checker) lookup(name string) *Object {
	if b := c.bound[name]; len(b) > 0 {
		return b[len(b)-1].obj
	}
	return c.prog.GlobalsByName[name]
}

func (c *checker) checkBlock(b *ast.Block) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.Block:
		c.checkBlock(s)
	case *ast.DeclStmt:
		t := c.resolveType(s.Spec)
		if types.IsVoid(t) {
			c.errorf(s.TokPos, "variable %s has void type", s.Name)
			t = types.IntType
		}
		obj := &Object{Name: s.Name, Kind: LocalObj, Type: t, Index: c.frameNext}
		c.frameNext += t.Size()
		if s.Init != nil {
			it := c.checkExpr(s.Init)
			c.checkAssignable(it, decay(t), s.Init)
		}
		c.declare(obj, s.TokPos)
		c.fn.Locals = append(c.fn.Locals, obj)
		c.prog.DeclObjs[s] = obj
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.If:
		c.checkCond(s.Cond)
		c.checkStmt(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.While:
		c.checkCond(s.Cond)
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
	case *ast.DoWhile:
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
		c.checkCond(s.Cond)
	case *ast.For:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		if s.Post != nil {
			c.checkExpr(s.Post)
		}
		c.loops++
		c.checkStmt(s.Body)
		c.loops--
		c.popScope()
	case *ast.Switch:
		t := c.checkExpr(s.Tag)
		if !types.IsInteger(decay(t)) {
			c.errorf(s.TokPos, "switch tag must be an integer, found %s", t)
		}
		seen := map[int64]bool{}
		for _, cs := range s.Cases {
			if cs.Value != nil {
				v, ok := c.constValue(cs.Value)
				if !ok {
					c.errorf(cs.TokPos, "case label must be a constant expression")
				} else if seen[v] {
					c.errorf(cs.TokPos, "duplicate case label %d", v)
				} else {
					seen[v] = true
				}
				c.pushScope()
				c.checkExpr(cs.Value)
				c.popScope()
			}
			// break inside a switch leaves the switch.
			c.switches++
			c.pushScope()
			for _, inner := range cs.Body {
				c.checkStmt(inner)
			}
			c.popScope()
			c.switches--
		}
	case *ast.Return:
		res := c.fn.Sig.Result
		if s.X == nil {
			if !types.IsVoid(res) {
				c.errorf(s.TokPos, "return without value in function returning %s", res)
			}
			return
		}
		if types.IsVoid(res) {
			c.errorf(s.TokPos, "return with value in void function %s", c.fn.Name)
			c.checkExpr(s.X)
			return
		}
		t := c.checkExpr(s.X)
		c.checkAssignable(t, res, s.X)
	case *ast.Break:
		if c.loops == 0 && c.switches == 0 {
			c.errorf(s.TokPos, "break outside loop or switch")
		}
	case *ast.Continue:
		if c.loops == 0 {
			c.errorf(s.TokPos, "continue outside loop")
		}
	case *ast.Empty:
	}
}

func (c *checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e)
	if !types.IsScalar(decay(t)) {
		c.errorf(e.Pos(), "condition must be scalar, found %s", t)
	}
}

// checkAssignable reports an error when src cannot initialize dst.
// The integer constant 0 and NULL convert to any pointer type.
func (c *checker) checkAssignable(src, dst types.Type, at ast.Expr) {
	src = decay(src)
	if types.AssignableTo(src, dst) {
		return
	}
	if types.IsPointer(dst) {
		if _, isNull := at.(*ast.NullLit); isNull {
			return
		}
		if lit, isLit := at.(*ast.IntLit); isLit && lit.Value == 0 {
			return
		}
		if types.IsInteger(src) {
			c.errorf(at.Pos(), "cannot assign %s to %s without a cast", src, dst)
			return
		}
	}
	if types.IsInteger(dst) && types.IsPointer(src) {
		c.errorf(at.Pos(), "cannot assign %s to %s without a cast", src, dst)
		return
	}
	c.errorf(at.Pos(), "cannot assign %s to %s", src, dst)
}

// setType annotates an expression node and returns the type.
func setType(e ast.Expr, t types.Type) types.Type {
	e.(ast.Typed).SetType(t)
	return t
}

func (c *checker) checkExpr(e ast.Expr) types.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return setType(e, types.IntType)
	case *ast.StringLit:
		// The call checker handles assert messages without visiting them;
		// any string reaching here is in an unsupported position.
		c.errorf(e.TokPos, "string literals are only supported as assert messages")
		return setType(e, &types.Pointer{Elem: types.CharType})
	case *ast.NullLit:
		return setType(e, &types.Pointer{Elem: types.VoidType})
	case *ast.Ident:
		obj := c.lookup(e.Name)
		if obj == nil {
			c.errorf(e.TokPos, "undefined: %s", e.Name)
			return setType(e, types.IntType)
		}
		c.prog.Uses[e] = obj
		return setType(e, obj.Type)
	case *ast.Unary:
		return c.checkUnary(e)
	case *ast.Postfix:
		t := c.checkExpr(e.X)
		c.requireLvalue(e.X)
		if !types.IsScalar(decay(t)) {
			c.errorf(e.TokPos, "%s requires a scalar operand, found %s", e.Op, t)
		}
		return setType(e, decay(t))
	case *ast.Binary:
		return c.checkBinary(e)
	case *ast.Assign:
		lt := c.checkExpr(e.Lhs)
		c.requireLvalue(e.Lhs)
		rt := c.checkExpr(e.Rhs)
		if e.Op == token.ASSIGN {
			c.checkAssignable(rt, decay(lt), e.Rhs)
		} else {
			// Compound assignment: arithmetic rules apply.
			if !types.IsScalar(decay(lt)) || !types.IsScalar(decay(rt)) {
				c.errorf(e.TokPos, "invalid operands for %s: %s and %s", e.Op, lt, rt)
			}
		}
		return setType(e, decay(lt))
	case *ast.Cond:
		c.checkCond(e.C)
		a := decay(c.checkExpr(e.Then))
		b := decay(c.checkExpr(e.Else))
		switch {
		case types.Identical(a, b):
			return setType(e, a)
		case types.IsInteger(a) && types.IsInteger(b):
			return setType(e, types.IntType)
		case types.IsPointer(a) && types.IsPointer(b):
			return setType(e, a)
		case types.IsPointer(a) && types.IsInteger(b), types.IsInteger(a) && types.IsPointer(b):
			// NULL-ish mixing; permit, prefer pointer type.
			if types.IsPointer(a) {
				return setType(e, a)
			}
			return setType(e, b)
		default:
			c.errorf(e.TokPos, "mismatched ?: branches: %s vs %s", a, b)
			return setType(e, a)
		}
	case *ast.Call:
		return c.checkCall(e)
	case *ast.Index:
		xt := decay(c.checkExpr(e.X))
		it := c.checkExpr(e.I)
		p, ok := xt.(*types.Pointer)
		if !ok {
			c.errorf(e.TokPos, "cannot index %s", xt)
			return setType(e, types.IntType)
		}
		if !types.IsInteger(decay(it)) {
			c.errorf(e.I.Pos(), "array index must be an integer, found %s", it)
		}
		return setType(e, p.Elem)
	case *ast.Field:
		xt := c.checkExpr(e.X)
		var st *types.Struct
		if e.Arrow {
			p, ok := decay(xt).(*types.Pointer)
			if ok {
				st, _ = p.Elem.(*types.Struct)
			}
		} else {
			st, _ = xt.(*types.Struct)
		}
		if st == nil {
			c.errorf(e.TokPos, "%s is not a struct%s", xt, map[bool]string{true: " pointer", false: ""}[e.Arrow])
			return setType(e, types.IntType)
		}
		f, ok := st.FieldByName(e.Name)
		if !ok {
			c.errorf(e.TokPos, "struct %s has no field %s", st.Name, e.Name)
			return setType(e, types.IntType)
		}
		return setType(e, f.Type)
	case *ast.Cast:
		to := c.resolveType(e.To)
		from := decay(c.checkExpr(e.X))
		if !types.IsScalar(to) && !types.IsVoid(to) {
			c.errorf(e.TokPos, "cannot cast to %s (only scalar casts are supported)", to)
		}
		if !types.IsScalar(from) {
			c.errorf(e.TokPos, "cannot cast from %s", from)
		}
		return setType(e, to)
	case *ast.SizeofType:
		e.Resolved = c.resolveType(e.Of)
		return setType(e, types.IntType)
	case *ast.SizeofExpr:
		c.checkExpr(e.X)
		return setType(e, types.IntType)
	}
	panic(fmt.Sprintf("sema: unknown expression %T", e))
}

func (c *checker) checkUnary(e *ast.Unary) types.Type {
	switch e.Op {
	case token.MINUS, token.TILDE:
		t := decay(c.checkExpr(e.X))
		if !types.IsInteger(t) {
			c.errorf(e.TokPos, "operator %s requires an integer, found %s", e.Op, t)
			t = types.IntType
		}
		return setType(e, t)
	case token.NOT:
		t := decay(c.checkExpr(e.X))
		if !types.IsScalar(t) {
			c.errorf(e.TokPos, "operator ! requires a scalar, found %s", t)
		}
		return setType(e, types.IntType)
	case token.STAR:
		t := decay(c.checkExpr(e.X))
		p, ok := t.(*types.Pointer)
		if !ok {
			c.errorf(e.TokPos, "cannot dereference %s", t)
			return setType(e, types.IntType)
		}
		if types.IsVoid(p.Elem) {
			c.errorf(e.TokPos, "cannot dereference void*")
			return setType(e, types.IntType)
		}
		return setType(e, p.Elem)
	case token.AMP:
		t := c.checkExpr(e.X)
		c.requireLvalue(e.X)
		return setType(e, &types.Pointer{Elem: t})
	case token.INC, token.DEC:
		t := c.checkExpr(e.X)
		c.requireLvalue(e.X)
		if !types.IsScalar(decay(t)) {
			c.errorf(e.TokPos, "%s requires a scalar operand, found %s", e.Op, t)
		}
		return setType(e, decay(t))
	}
	panic("sema: unknown unary op " + e.Op.String())
}

func (c *checker) checkBinary(e *ast.Binary) types.Type {
	xt := decay(c.checkExpr(e.X))
	yt := decay(c.checkExpr(e.Y))
	switch e.Op {
	case token.LAND, token.LOR:
		if !types.IsScalar(xt) || !types.IsScalar(yt) {
			c.errorf(e.TokPos, "invalid operands for %s: %s and %s", e.Op, xt, yt)
		}
		return setType(e, types.IntType)
	case token.EQ, token.NEQ, token.LT, token.GT, token.LEQ, token.GEQ:
		okPair := (types.IsInteger(xt) && types.IsInteger(yt)) ||
			(types.IsPointer(xt) && types.IsPointer(yt)) ||
			(types.IsPointer(xt) && isZeroish(e.Y)) ||
			(types.IsPointer(yt) && isZeroish(e.X))
		if !okPair {
			c.errorf(e.TokPos, "invalid comparison: %s %s %s", xt, e.Op, yt)
		}
		return setType(e, types.IntType)
	case token.PLUS:
		switch {
		case types.IsInteger(xt) && types.IsInteger(yt):
			return setType(e, arith(xt, yt))
		case types.IsPointer(xt) && types.IsInteger(yt):
			return setType(e, xt)
		case types.IsInteger(xt) && types.IsPointer(yt):
			return setType(e, yt)
		}
		c.errorf(e.TokPos, "invalid operands for +: %s and %s", xt, yt)
		return setType(e, types.IntType)
	case token.MINUS:
		switch {
		case types.IsInteger(xt) && types.IsInteger(yt):
			return setType(e, arith(xt, yt))
		case types.IsPointer(xt) && types.IsInteger(yt):
			return setType(e, xt)
		case types.IsPointer(xt) && types.IsPointer(yt):
			return setType(e, types.IntType)
		}
		c.errorf(e.TokPos, "invalid operands for -: %s and %s", xt, yt)
		return setType(e, types.IntType)
	default: // * / % & | ^ << >>
		if !types.IsInteger(xt) || !types.IsInteger(yt) {
			c.errorf(e.TokPos, "invalid operands for %s: %s and %s", e.Op, xt, yt)
			return setType(e, types.IntType)
		}
		return setType(e, arith(xt, yt))
	}
}

// arith is the usual arithmetic conversion: long dominates, otherwise int.
func arith(a, b types.Type) types.Type {
	if ab, ok := a.(*types.Basic); ok && ab.Kind == types.Long {
		return types.LongType
	}
	if bb, ok := b.(*types.Basic); ok && bb.Kind == types.Long {
		return types.LongType
	}
	if ab, ok := a.(*types.Basic); ok && ab.Kind == types.UInt {
		return types.UIntType
	}
	if bb, ok := b.(*types.Basic); ok && bb.Kind == types.UInt {
		return types.UIntType
	}
	return types.IntType
}

func isZeroish(e ast.Expr) bool {
	if _, ok := e.(*ast.NullLit); ok {
		return true
	}
	lit, ok := e.(*ast.IntLit)
	return ok && lit.Value == 0
}

func (c *checker) checkCall(e *ast.Call) types.Type {
	var sig *types.Func
	switch {
	case c.builtins[e.Fun] != nil:
		sig = c.builtins[e.Fun]
	case c.prog.Funcs[e.Fun] != nil:
		sig = c.prog.Funcs[e.Fun].Sig
	case c.prog.Lib[e.Fun] != nil:
		sig = c.prog.Lib[e.Fun]
	default:
		c.errorf(e.TokPos, "call to undefined function %s (declare it extern to treat it as an environment input)", e.Fun)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return setType(e, types.IntType)
	}
	// assert accepts an optional string message as a second argument.
	if e.Fun == "assert" && len(e.Args) == 2 {
		t := c.checkExpr(e.Args[0])
		if !types.IsScalar(decay(t)) {
			c.errorf(e.Args[0].Pos(), "assert requires a scalar condition")
		}
		if msg, ok := e.Args[1].(*ast.StringLit); !ok {
			c.errorf(e.Args[1].Pos(), "assert message must be a string literal")
		} else {
			setType(msg, &types.Pointer{Elem: types.CharType})
		}
		return setType(e, types.VoidType)
	}
	if len(e.Args) != len(sig.Params) {
		c.errorf(e.TokPos, "%s expects %d arguments, got %d", e.Fun, len(sig.Params), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(sig.Params) {
			c.checkAssignable(at, sig.Params[i], a)
		}
	}
	return setType(e, sig.Result)
}

// requireLvalue reports an error unless e designates a memory location.
func (c *checker) requireLvalue(e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		return
	case *ast.Index:
		return
	case *ast.Field:
		if !e.Arrow {
			c.requireLvalue(e.X)
		}
		return
	case *ast.Unary:
		if e.Op == token.STAR {
			return
		}
	}
	c.errorf(e.Pos(), "expression is not assignable")
}

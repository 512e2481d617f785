// Package frontend is the MiniC compile pipeline — parse, type-check,
// lower, optimize — shared by the public API, the job service and the
// bundled miniSIP library.
package frontend

import (
	"fmt"

	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/parser"
	"dart/internal/sema"
	"dart/internal/types"
)

// Compile compiles src against the library signatures lib (nil selects
// the standard library), running the IR optimizer when optimize is set.
// An error names the failing stage with a "parse:", "check:" or
// "compile:" prefix; callers show these prefixes verbatim.
func Compile(src string, lib map[string]*types.Func, optimize bool) (*ir.Prog, *sema.Program, error) {
	file, err := parser.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	if lib == nil {
		lib = machine.StdLibSigs()
	}
	sem, err := sema.Check(file, lib)
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	prog, err := ir.Compile(sem)
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	if optimize {
		ir.Optimize(prog)
	}
	return prog, sem, nil
}

package main

import (
	"fmt"
	"time"

	"dart"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/parser"
	"dart/internal/sema"
)

// frontTimes is the cost of one pass through the compile pipeline.
type frontTimes struct {
	parse, check, lower, optimize time.Duration
}

// compileTimed runs the front end stage by stage — the same pipeline as
// dart.Compile — timing each stage.
func compileTimed(src string) (*dart.Program, frontTimes, error) {
	var ft frontTimes
	t := time.Now()
	file, err := parser.Parse(src)
	ft.parse = time.Since(t)
	if err != nil {
		return nil, ft, fmt.Errorf("parse: %w", err)
	}
	t = time.Now()
	sem, err := sema.Check(file, machine.StdLibSigs())
	ft.check = time.Since(t)
	if err != nil {
		return nil, ft, fmt.Errorf("check: %w", err)
	}
	t = time.Now()
	prog, err := ir.Compile(sem)
	ft.lower = time.Since(t)
	if err != nil {
		return nil, ft, fmt.Errorf("compile: %w", err)
	}
	t = time.Now()
	ir.Optimize(prog)
	ft.optimize = time.Since(t)
	return &dart.Program{IR: prog, Sem: sem}, ft, nil
}

// instrCount is the number of IR instructions over every function.
func instrCount(p *ir.Prog) int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}

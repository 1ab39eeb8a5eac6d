// Package codegen emits the actual straight-line source code the paper's
// generators produce — one statement per compiled operation — in both C
// (the paper's target language) and Go. The emitted code is what a
// downstream user would compile for maximum performance; the in-process
// engines execute the same instruction streams through the program
// package's dispatch loop.
//
// Both language backends render from the language-neutral statement IR
// in codegen/ir. The translation validator in codegen/validate lifts the
// Go rendering back to an instruction stream and proves it equal to the
// compiled program; this package's tests compile the C rendering and run
// it against the same programs.
//
// Generated-code volume is itself one of the paper's observations (the
// PC-set method emitted over 100 000 lines for c6288, §3), so LineCount
// reports the statement count of an emission.
package codegen

import (
	"go/parser"
	"go/token"
	"io"

	"udsim/internal/codegen/ir"
)

// Language selects the output language.
type Language = ir.Language

const (
	// C emits C99 using exact-width unsigned types.
	C = ir.C
	// Go emits a Go source file.
	Go = ir.Go
)

// Unit is a named program to emit as one function. Every simulator
// exposes an init program (run once per input vector) and a sim program.
type Unit = ir.Source

// Emit writes a self-contained source file containing one function per
// unit, each taking the state array. name is the C file prefix or Go
// package name. It returns the number of generated statements (the
// paper's lines-of-code metric, excluding boilerplate).
func Emit(w io.Writer, lang Language, name string, units []Unit) (int, error) {
	rep, err := ir.Build(units)
	if err != nil {
		return 0, err
	}
	src, stmts, err := ir.Render(lang, name, rep)
	if err != nil {
		return 0, err
	}
	_, err = io.WriteString(w, src)
	return stmts, err
}

// CheckGo parses Go source text, returning any syntax error — the tests
// use it to prove every emission is compilable Go.
func CheckGo(src string) error {
	fset := token.NewFileSet()
	_, err := parser.ParseFile(fset, "generated.go", src, 0)
	return err
}

// Package vet implements the repo-specific static analyzers behind the
// udvet multichecker, in the style of go/analysis but on the standard
// library alone (the x/tools analysis framework is not vendored): each
// Analyzer inspects parsed files and reports Diagnostics, and Run drives
// every analyzer over a file set.
//
// The shipped analyzer guards a repo convention the compiler cannot:
//
//   - atomiccounter: the runtime counters in internal/obs are
//     atomic.Int64 fields shared with shard workers; every access must
//     go through the atomic API (or the documented Attach-time
//     (re)initialization), never a direct read, write or copy.
package vet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	// Pos locates the offending node.
	Pos token.Position
	// Analyzer names the analyzer that fired.
	Analyzer string
	// Msg is the human-readable diagnosis.
	Msg string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Msg)
}

// File is one parsed source file handed to the analyzers.
type File struct {
	// Path is the file path as given to Load.
	Path string
	// AST is the parsed file.
	AST *ast.File
}

// Pass is one analysis run over a set of files sharing a token.FileSet.
type Pass struct {
	Fset  *token.FileSet
	Files []File

	analyzer string
	diags    []Diagnostic
}

// Report records a finding at the node's position.
func (p *Pass) Report(n ast.Node, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(n.Pos()),
		Analyzer: p.analyzer,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-line description the multichecker prints.
	Doc string
	// Run inspects the pass's files, reporting through pass.Report.
	Run func(*Pass)
}

// Analyzers lists every shipped analyzer.
func Analyzers() []*Analyzer {
	return []*Analyzer{AtomicCounter()}
}

// Run drives the analyzers over the files and returns the diagnostics
// sorted by position (file, line, column, analyzer) — deterministic
// output is part of the CI contract.
func Run(fset *token.FileSet, files []File, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, a := range analyzers {
		p := &Pass{Fset: fset, Files: files, analyzer: a.Name}
		a.Run(p)
		all = append(all, p.diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// Load parses every .go file under the given roots (skipping testdata
// and hidden directories) into one Pass-ready file set.
func Load(roots []string) (*token.FileSet, []File, error) {
	fset := token.NewFileSet()
	var files []File
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("udvet: %w", err)
			}
			files = append(files, File{Path: path, AST: f})
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return fset, files, nil
}

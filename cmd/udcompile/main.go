// Command udcompile emits the straight-line C or Go source a compiled
// unit-delay simulator generates for a circuit — the textual form of the
// paper's code-generation techniques. The unit-delay engines' programs
// are translation-validated first (udsim.ValidateCodegen), and any
// finding stops the tool with exit status 1 before anything is written.
//
// Usage:
//
//	udcompile -gen c432 -engine pcset -lang c > c432_pcset.c
//	udcompile -bench adder.bench -engine parallel-pt-trim -lang go
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"udsim"
	"udsim/internal/codegen"
)

func main() {
	var (
		benchFile = flag.String("bench", "", "netlist file (.bench or structural .v)")
		genName   = flag.String("gen", "", "synthesize a benchmark profile (c432..c7552)")
		engine    = flag.String("engine", "pcset", "technique: "+strings.Join(udsim.Techniques(), ", "))
		lang      = flag.String("lang", "c", "output language: c or go")
		outFile   = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var c *udsim.Circuit
	var err error
	switch {
	case *benchFile != "":
		c, err = udsim.LoadCircuitFile(*benchFile)
	case *genName != "":
		c, err = udsim.ISCAS85(*genName)
	default:
		err = fmt.Errorf("need -bench FILE or -gen NAME")
	}
	if err != nil {
		fail(err)
	}
	if !c.Combinational() {
		c, _ = c.BreakFlipFlops()
	}

	e, err := udsim.NewEngine(*engine, c)
	if err != nil {
		fail(err)
	}
	initP, simP, ok := udsim.Programs(e)
	if !ok {
		fail(fmt.Errorf("engine %s is interpreted; nothing to emit", e.EngineName()))
	}
	// The zero-delay LCC program has no unit-delay spec to validate
	// against; every other engine's emission is validated.
	if _, lcc := e.(*udsim.ZeroDelaySim); !lcc {
		rep, err := udsim.ValidateCodegen(e)
		if err != nil {
			fail(err)
		}
		if err := rep.Err(); err != nil {
			fail(err)
		}
	}

	var language codegen.Language
	switch strings.ToLower(*lang) {
	case "c":
		language = codegen.C
	case "go":
		language = codegen.Go
	default:
		fail(fmt.Errorf("unknown language %q", *lang))
	}

	out := os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		out = f
	}
	units := []codegen.Unit{{Name: "simvec", Prog: simP}}
	if len(initP.Code) > 0 {
		units = []codegen.Unit{{Name: "initvec", Prog: initP}, {Name: "simvec", Prog: simP}}
	}
	n, err := codegen.Emit(out, language, sanitize(c.Name), units)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "udcompile: %s, %s, %d statements\n", c.Name, e.EngineName(), n)
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 || b.String()[0] >= '0' && b.String()[0] <= '9' {
		return "gen_" + b.String()
	}
	return b.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "udcompile:", err)
	os.Exit(1)
}

package validate

import (
	"strings"
	"testing"

	"udsim/internal/ckttest"
	"udsim/internal/codegen/ir"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// fig4Parallel compiles the paper's Fig. 4 circuit with the parallel
// technique and returns the emission inputs.
func fig4Parallel(t *testing.T) ([]ir.Source, *verify.Spec) {
	t.Helper()
	s, err := parsim.Compile(ckttest.Fig4(), parsim.Config{WordBits: 32})
	if err != nil {
		t.Fatal(err)
	}
	pi, ps := s.Programs()
	units := []ir.Source{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}
	return units, s.Spec()
}

func fig4PCSet(t *testing.T) ([]ir.Source, *verify.Spec) {
	t.Helper()
	s, err := pcset.Compile(ckttest.Fig4(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, ps := s.Programs()
	units := []ir.Source{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}
	return units, s.Spec()
}

func TestCleanEmissionValidates(t *testing.T) {
	for name, build := range map[string]func(*testing.T) ([]ir.Source, *verify.Spec){
		"parallel": fig4Parallel, "pcset": fig4PCSet,
	} {
		units, spec := build(t)
		res, err := CheckUnits("gensim", units, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Report.Err(); err != nil {
			t.Fatalf("%s: clean emission did not validate: %v", name, err)
		}
		if res.Exact == 0 {
			t.Errorf("%s: no exact decisions", name)
		}
		if res.Semantic != 0 {
			t.Errorf("%s: deterministic emitter produced %d semantic decisions", name, res.Semantic)
		}
	}
}

// mutateSim deep-copies the units and applies f to the sim program.
func mutateSim(units []ir.Source, f func(p *program.Program)) []ir.Source {
	out := make([]ir.Source, len(units))
	for i, u := range units {
		p := *u.Prog
		p.Code = append([]program.Instr(nil), u.Prog.Code...)
		out[i] = ir.Source{Name: u.Name, Prog: &p}
	}
	f(out[len(out)-1].Prog)
	return out
}

// findOp returns the index of the first sim instruction matching ops.
func findOp(t *testing.T, p *program.Program, match func(*program.Instr) bool) int {
	t.Helper()
	for i := range p.Code {
		if match(&p.Code[i]) {
			return i
		}
	}
	t.Skip("no matching instruction in this compile")
	return -1
}

// TestMutationSuite deliberately miscompiles — emits source from a
// mutated program — and requires the validator to catch every mutant
// with the mutated instruction's coordinate as witness.
func TestMutationSuite(t *testing.T) {
	units, _ := fig4Parallel(t)

	// A synthetic unit exercising the opcodes Fig. 4's compile may lack
	// (masked fill, carry shifts).
	synth := &program.Program{WordBits: 32, NumVars: 6, Code: []program.Instr{
		{Op: program.OpShrMove, Dst: 2, A: 0, B: 1, Sh: 3},
		{Op: program.OpFillLowN, Dst: 3, A: 0, B: 7, Sh: 2},
		{Op: program.OpShlMove, Dst: 4, A: 1, B: 0, Sh: 5},
		{Op: program.OpFill, Dst: 5, A: 2, B: program.None, Sh: 9},
	}}
	synthUnits := []ir.Source{{Name: "simvec", Prog: synth}}
	nonNop := func(in *program.Instr) bool { return in.Op != program.OpNop }

	type class struct {
		name  string
		units []ir.Source // original emission inputs
		// pick returns the mutated instruction's index in the sim
		// program, the coordinate the witness must carry; mutate plants
		// the defect there.
		pick   func(*testing.T, *program.Program) int
		mutate func(code []program.Instr, i int)
	}
	classes := []class{
		{"swapped-operands", synthUnits,
			func(t *testing.T, p *program.Program) int { return 0 },
			func(c []program.Instr, i int) { c[i].A, c[i].B = c[i].B, c[i].A }},
		{"dropped-statement", units,
			func(t *testing.T, p *program.Program) int { return findOp(t, p, nonNop) },
			func(c []program.Instr, i int) { c[i] = program.Instr{Op: program.OpNop} }},
		{"wrong-shift", synthUnits,
			func(t *testing.T, p *program.Program) int { return 3 },
			func(c []program.Instr, i int) { c[i].Sh++ }},
		{"widened-mask", synthUnits,
			func(t *testing.T, p *program.Program) int { return 1 },
			func(c []program.Instr, i int) { c[i].B++ }},
		{"wrong-opcode", units,
			func(t *testing.T, p *program.Program) int {
				return findOp(t, p, func(in *program.Instr) bool {
					return in.Op == program.OpAnd && in.A != in.B
				})
			},
			func(c []program.Instr, i int) { c[i].Op = program.OpOr }},
		{"redirected-destination", units,
			func(t *testing.T, p *program.Program) int { return findOp(t, p, nonNop) },
			func(c []program.Instr, i int) { c[i].Dst = (c[i].Dst + 1) % int32(units[1].Prog.NumVars) }},
		{"duplicated-statement", units,
			func(t *testing.T, p *program.Program) int { return 1 + findOp(t, p, nonNop) },
			func(c []program.Instr, i int) { c[i] = c[i-1] }},
		{"carry-swap", synthUnits,
			func(t *testing.T, p *program.Program) int { return 2 },
			func(c []program.Instr, i int) { c[i].A, c[i].B = c[i].B, c[i].A }},
		// An emitter bug that keeps every statement but reorders two: the
		// witness is the first swapped index.
		{"reordered-statements", units,
			func(t *testing.T, p *program.Program) int {
				for i := 0; i+1 < len(p.Code); i++ {
					a, b := &p.Code[i], &p.Code[i+1]
					if nonNop(a) && nonNop(b) && normalizeInstr(*a) != normalizeInstr(*b) {
						return i
					}
				}
				t.Fatal("no adjacent pair of distinct statements to swap")
				return -1
			},
			func(c []program.Instr, i int) { c[i], c[i+1] = c[i+1], c[i] }},
	}

	for _, cl := range classes {
		t.Run(cl.name, func(t *testing.T) {
			idx := cl.pick(t, cl.units[len(cl.units)-1].Prog)
			mutated := mutateSim(cl.units, func(p *program.Program) { cl.mutate(p.Code, idx) })
			goSrc, err := GoSource("gensim", mutated)
			if err != nil {
				t.Fatal(err)
			}
			res := Check("gensim", goSrc, cl.units)
			if res.Report.Count(verify.SevError) == 0 {
				t.Fatalf("mutant not caught:\n%s", res.Report)
			}
			witnessed := false
			for _, f := range res.Report.Findings {
				if f.Rule == verify.RuleLift && f.Severity == verify.SevError && f.Instr == idx {
					witnessed = true
				}
			}
			if !witnessed {
				t.Fatalf("mutant caught without the instruction-coordinate witness (want instr %d):\n%s",
					idx, res.Report)
			}
		})
	}
}

// TestSemanticFallback hand-canonicalizes emitted statements into
// equivalent-but-different forms; the symbolic evaluator must prove them
// and record semantic decisions.
func TestSemanticFallback(t *testing.T) {
	p := &program.Program{WordBits: 16, NumVars: 4, Code: []program.Instr{
		{Op: program.OpAnd, Dst: 2, A: 0, B: 1},
		{Op: program.OpNand, Dst: 3, A: 0, B: 1},
	}}
	units := []ir.Source{{Name: "simvec", Prog: p}}
	goSrc := `// Package gensim holds generated unit-delay compiled simulation code.
package gensim

func simvec(st []uint16) {
	st[2] = st[1] & st[0]
	st[3] = ^st[0] | ^st[1]
}
`
	res := Check("gensim", goSrc, units)
	if err := res.Report.Err(); err != nil {
		t.Fatalf("equivalent canonicalization rejected: %v", err)
	}
	if res.Semantic != 2 {
		t.Fatalf("want 2 semantic decisions, got %d exact / %d semantic", res.Exact, res.Semantic)
	}

	// The same shapes with a real divergence must still fail.
	badSrc := strings.Replace(goSrc, "^st[0] | ^st[1]", "^st[0] & ^st[1]", 1)
	res = Check("gensim", badSrc, units)
	if res.Report.Count(verify.SevError) == 0 {
		t.Fatal("inequivalent canonicalization accepted")
	}
}

// TestHygieneOnAST duplicates an emitted statement textually: the lifted
// stream then assigns one persistent slot twice, which V016 must report
// as an extra statement.
func TestHygieneOnAST(t *testing.T) {
	units, _ := fig4Parallel(t)
	goSrc, err := GoSource("gensim", units)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the first simvec statement line.
	lines := strings.Split(goSrc, "\n")
	out := make([]string, 0, len(lines)+1)
	inSim, done := false, false
	for _, l := range lines {
		out = append(out, l)
		if strings.HasPrefix(l, "func simvec") {
			inSim = true
			continue
		}
		if inSim && !done && strings.HasPrefix(strings.TrimSpace(l), "st[") {
			out = append(out, l)
			done = true
		}
	}
	if !done {
		t.Fatal("no statement to duplicate")
	}
	res := Check("gensim", strings.Join(out, "\n"), units)
	if res.Report.Count(verify.SevError) == 0 {
		t.Fatal("duplicated statement accepted")
	}
	if !res.Report.HasRule(verify.RuleLift) {
		t.Errorf("no V016 finding for the extra statement:\n%s", res.Report)
	}
}

// TestHygieneDoubleAssign feeds a program that assigns a persistent slot
// twice. Its emission lifts back equal to it, so V016 alone passes it;
// CheckUnits must reject it through the V002 finding the static verifier
// reports on its spec.
func TestHygieneDoubleAssign(t *testing.T) {
	p := &program.Program{WordBits: 8, NumVars: 3, Code: []program.Instr{
		{Op: program.OpMove, Dst: 2, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 2, A: 1, B: program.None},
	}}
	units := []ir.Source{{Name: "simvec", Prog: p}}
	spec := &verify.Spec{Name: "synth", Sim: p, ScratchStart: 3,
		RuntimeWritten: []int32{0, 1}, LiveOut: []int32{2}}
	res, err := CheckUnits("gensim", units, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.HasRule(verify.RuleWAW) {
		t.Fatalf("double assignment not rejected as %s:\n%s", verify.RuleWAW, res.Report)
	}
}

func TestLiftRejectsForeignCode(t *testing.T) {
	units, _ := fig4Parallel(t)
	for name, src := range map[string]string{
		"syntax-error":  "package gensim\nfunc simvec(st []uint32) { st[0] = }\n",
		"non-function":  "package gensim\nvar x = 1\n",
		"loop-body":     "package gensim\nfunc initvec(st []uint32) {\n\tfor range st {\n\t}\n}\n",
		"call-body":     "package gensim\nfunc initvec(st []uint32) {\n\tst[0] = f(st[1])\n}\n",
		"bad-signature": "package gensim\nfunc initvec(st []float64) {\n\t_ = st\n}\n",
	} {
		res := Check("gensim", src, units)
		if res.Report.Count(verify.SevError) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFindingOrderDeterministic(t *testing.T) {
	units, _ := fig4Parallel(t)
	mutated := mutateSim(units, func(p *program.Program) {
		for i := range p.Code {
			if p.Code[i].Op != program.OpNop {
				p.Code[i].Dst = (p.Code[i].Dst + 1) % int32(p.NumVars)
			}
		}
	})
	goSrc, err := GoSource("gensim", mutated)
	if err != nil {
		t.Fatal(err)
	}
	first := Check("gensim", goSrc, units).Report.String()
	for i := 0; i < 3; i++ {
		if got := Check("gensim", goSrc, units).Report.String(); got != first {
			t.Fatal("finding order is not deterministic")
		}
	}
}

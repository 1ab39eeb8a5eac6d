package codegen

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"udsim/internal/codegen/ir"
	"udsim/internal/gen"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
)

// everyOpcode returns a program that runs every opcode once, each into
// a slot of its own, reading the seeded slots 0 and 1.
func everyOpcode(wordBits int) *program.Program {
	none := program.None
	code := []program.Instr{
		{Op: program.OpNop, A: none, B: none},
		{Op: program.OpAnd, A: 0, B: 1},
		{Op: program.OpOr, A: 0, B: 1},
		{Op: program.OpXor, A: 0, B: 1},
		{Op: program.OpNand, A: 0, B: 1},
		{Op: program.OpNor, A: 0, B: 1},
		{Op: program.OpXnor, A: 0, B: 1},
		{Op: program.OpNot, A: 0, B: none},
		{Op: program.OpMove, A: 0, B: none},
		{Op: program.OpOrMove, A: 0, B: none},
		{Op: program.OpConst0, A: none, B: none},
		{Op: program.OpConst1, A: none, B: none},
		{Op: program.OpShlOr, A: 0, B: none, Sh: 3},
		{Op: program.OpShlOr, A: 0, B: 1, Sh: 3},
		{Op: program.OpShlMove, A: 0, B: none, Sh: 5},
		{Op: program.OpShlMove, A: 0, B: 1, Sh: 5},
		{Op: program.OpShrMove, A: 0, B: none, Sh: 1},
		{Op: program.OpShrMove, A: 0, B: 1, Sh: 1},
		{Op: program.OpFill, A: 0, B: none, Sh: 7},
		{Op: program.OpBit, A: 1, B: none, Sh: 6},
		{Op: program.OpFillLowN, A: 1, B: 5, Sh: 2},
	}
	for i := range code {
		code[i].Dst = int32(2 + i)
	}
	return &program.Program{WordBits: wordBits, NumVars: 2 + len(code), Code: code}
}

// TestEmittedCMatchesRun is the C backend's proof. Translation validation
// (package validate) lifts only the Go rendering; the C rendering shares
// its statement IR but not its text. Here the C that Emit writes is
// compiled with the system C compiler at -O0 (emissions of the larger
// profiles take minutes to optimize) and run on seeded states, and every
// state word after every unit must equal program.Run's.
func TestEmittedCMatchesRun(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skipf("no C compiler on PATH: %v", err)
	}
	cases := map[string][]Unit{}
	for _, wb := range []int{8, 16, 32, 64} {
		p := everyOpcode(wb)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("opcodes/W%d", wb)] = []Unit{{Name: "sim", Prog: p}}
	}
	for tech, units := range allUnits(t) {
		cases["fig4/"+tech] = units
	}
	for _, name := range []string{"c432", "c880"} {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, wb := range []int{8, 32, 64} {
			s, err := parsim.Compile(c, parsim.Config{WordBits: wb, Trim: true})
			if err != nil {
				t.Fatal(err)
			}
			pi, ps := s.Programs()
			cases[fmt.Sprintf("%s/parallel-trim/W%d", name, wb)] =
				[]Unit{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}
		}
		s, err := pcset.Compile(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		pi, ps := s.Programs()
		cases[name+"/pcset"] = []Unit{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		units := cases[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runC(t, cc, units)
		})
	}
}

// runC compiles the units' C emission with a driver that reads states
// from stdin and prints every state word after each unit, then checks
// that output against program.Run over the same seeded states.
func runC(t *testing.T, cc string, units []Unit) {
	t.Helper()
	numVars := 0
	for _, u := range units {
		numVars = max(numVars, u.Prog.NumVars)
	}
	var src strings.Builder
	src.WriteString("#include <stdio.h>\n")
	if _, err := Emit(&src, C, "gensim", units); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&src, "int main(void) {\n\tstatic %s st[%d];\n\tunsigned long long x;\n\tint i;\n\tfor (;;) {\n",
		ir.WordType(C, units[0].Prog.WordBits), numVars)
	fmt.Fprintf(&src, "\t\tfor (i = 0; i < %d; i++) {\n\t\t\tif (scanf(\"%%llx\", &x) != 1)\n\t\t\t\treturn 0;\n\t\t\tst[i] = x;\n\t\t}\n", numVars)
	for _, u := range units {
		fmt.Fprintf(&src, "\t\t%s(st);\n\t\tfor (i = 0; i < %d; i++)\n\t\t\tprintf(\"%%llx\\n\", (unsigned long long)st[i]);\n",
			u.Name, numVars)
	}
	src.WriteString("\t}\n}\n")

	dir := t.TempDir()
	cfile, bin := filepath.Join(dir, "gensim.c"), filepath.Join(dir, "gensim")
	if err := os.WriteFile(cfile, []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(cc, "-std=c99", "-O0", "-o", bin, cfile).CombinedOutput(); err != nil {
		t.Fatalf("emitted C does not compile: %v\n%s", err, out)
	}

	rng := rand.New(rand.NewSource(1))
	mask := units[0].Prog.Mask()
	states := make([][]uint64, 3)
	var stdin strings.Builder
	for k := range states {
		states[k] = make([]uint64, numVars)
		for i := range states[k] {
			states[k][i] = rng.Uint64() & mask
			fmt.Fprintf(&stdin, "%x\n", states[k][i])
		}
	}
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader(stdin.String())
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("emitted C failed to run: %v", err)
	}

	words := strings.Fields(string(stdout))
	k := 0
	for s, st := range states {
		for _, u := range units {
			u.Prog.Run(st)
			for i, want := range st {
				if k == len(words) {
					t.Fatalf("C output ends after %d words", k)
				}
				got, err := strconv.ParseUint(words[k], 16, 64)
				if err != nil {
					t.Fatal(err)
				}
				k++
				if got != want {
					t.Fatalf("state %d after %s: st[%d] = %#x in C, %#x from program.Run", s, u.Name, i, got, want)
				}
			}
		}
	}
	if k != len(words) {
		t.Fatalf("C printed %d words, want %d", len(words), k)
	}
}

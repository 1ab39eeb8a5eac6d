package validate

import (
	"strings"
	"testing"

	"udsim/internal/ckttest"
	"udsim/internal/codegen/ir"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
)

// FuzzLiftGo mutates emitted source bytes and holds the validator to its
// contract: lift to an equivalent stream or report a finding — never
// silently accept. Concretely, for every statement the lifter does
// recognize, the recognized instruction's word-level semantics must
// equal the statement's own symbolic evaluation (recognizer soundness),
// and re-rendering the recognized instruction must lift back to the same
// instruction (round-trip stability). Nothing may panic.
func FuzzLiftGo(f *testing.F) {
	if s, err := parsim.Compile(ckttest.Fig4(), parsim.Config{WordBits: 32}); err == nil {
		pi, ps := s.Programs()
		if goSrc, err := GoSource("gensim", []ir.Source{
			{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}); err == nil {
			f.Add([]byte(goSrc))
		}
	}
	if s, err := pcset.Compile(ckttest.Fig4(), nil); err == nil {
		pi, ps := s.Programs()
		if goSrc, err := GoSource("gensim", []ir.Source{
			{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}); err == nil {
			f.Add([]byte(goSrc))
		}
	}
	f.Add([]byte("package g\n\nfunc simvec(st []uint8) {\n\tst[3] = -(st[1] >> 2 & 1) & (^uint8(0) >> 5)\n\tst[0] |= st[1]<<3 | st[2]>>5\n}\n"))
	f.Add([]byte("package g\n\nfunc f(st []uint64) {\n\tst[0] = ^(st[1] ^ st[2])\n\t_ = st\n}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		if len(src) > 1<<16 || !strings.HasPrefix(strings.TrimSpace(src), "package") {
			return
		}
		funcs, err := LiftGo(src)
		if err != nil {
			return // rejected: a finding, never a silent accept
		}
		for fi := range funcs {
			lf := &funcs[fi]
			if lf.WordBits == 0 || lf.Placeholder {
				continue
			}
			for si := range lf.Stmts {
				ls := &lf.Stmts[si]
				got, okGot := liftedWord(ls, lf.WordBits)
				if ls.Instr == nil {
					continue
				}
				// Recognizer soundness: the instruction the lifter claims
				// this statement is must mean what the statement means.
				want, okWant := instrWord(ls.Instr, lf.WordBits)
				if !okWant {
					t.Fatalf("func %s stmt %d: recognized %s has no semantics", lf.Name, si, ls.Instr.Op)
				}
				if okGot && !wordEq(want, got) {
					t.Fatalf("func %s stmt %d (line %d): recognized %s is not equivalent to its own expression",
						lf.Name, si, ls.Line, describeInstr(ls.Instr))
				}
				// Round-trip stability: render the recognized instruction
				// and lift it again; the streams must agree.
				rendered, err := ir.RenderStmt(ir.Go, lf.WordBits, &ir.Stmt{In: *ls.Instr})
				if err != nil {
					t.Fatalf("func %s stmt %d: recognized instruction does not render: %v", lf.Name, si, err)
				}
				one := "package g\n\nfunc f(st []uint" +
					map[int]string{8: "8", 16: "16", 32: "32", 64: "64"}[lf.WordBits] +
					") {\n\t" + rendered + "\n}\n"
				again, err := LiftGo(one)
				if err != nil || len(again) != 1 || len(again[0].Stmts) != 1 || again[0].Stmts[0].Instr == nil {
					t.Fatalf("func %s stmt %d: re-render %q did not lift", lf.Name, si, rendered)
				}
				if normalizeInstr(*again[0].Stmts[0].Instr) != normalizeInstr(*ls.Instr) {
					t.Fatalf("func %s stmt %d: %q round-trips to a different instruction", lf.Name, si, rendered)
				}
			}
		}
	})
}

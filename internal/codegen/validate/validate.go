package validate

import (
	"fmt"

	"udsim/internal/codegen/ir"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// Result is one translation-validation run: the findings report and the
// decision census.
type Result struct {
	// Report carries the findings, sorted under the verify package's
	// stable-sort contract. A clean report is the proof.
	Report *verify.Report
	// Exact counts statements whose lifted instruction matched the
	// compiled one field-for-field; Semantic counts statements proven
	// equivalent by the word-level symbolic evaluator instead.
	Exact    int
	Semantic int
}

// GoSource renders the units' statement IR as Go — the emission the
// validator lifts. It matches codegen.Emit's Go output byte for byte.
func GoSource(name string, units []ir.Source) (string, error) {
	rep, err := ir.Build(units)
	if err != nil {
		return "", err
	}
	src, _, err := ir.Render(ir.Go, name, rep)
	return src, err
}

// CheckUnits validates the emission of the units in one step — the
// facade and CLI entry point. A non-nil spec must describe the units'
// programs: the static verifier (rules V001–V011) runs over it first,
// and a spec with any warning or error finding is rejected with that
// report before anything is lifted. The Go rendering is then lifted and
// proven equal to the programs (V016), so the emitted statements carry
// the def-use guarantees V001/V002 proved on the programs.
func CheckUnits(name string, units []ir.Source, spec *verify.Spec) (*Result, error) {
	if spec != nil {
		if rep := verify.Check(spec, verify.Options{}); !rep.Clean() {
			rep.Name = name
			return &Result{Report: rep}, nil
		}
	}
	goSrc, err := GoSource(name, units)
	if err != nil {
		return nil, err
	}
	return Check(name, goSrc, units), nil
}

// Check validates a Go emission against the programs it was generated
// from: goSrc is lifted back to an instruction stream and proven equal
// to the units' programs, statement by statement and in order (rule
// V016). The C rendering shares the statement IR this checks and is
// covered by compiling and running it (package codegen's tests).
func Check(name, goSrc string, units []ir.Source) *Result {
	r := &verify.Report{Name: name}
	res := &Result{Report: r}
	defer r.Sort()

	rep, err := ir.Build(units)
	if err != nil {
		r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
			Prog: "ir", Instr: -1, Slot: -1, Msg: err.Error()})
		return res
	}
	checkProjection(rep, units, r)

	funcs, err := LiftGo(goSrc)
	if err != nil {
		r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
			Prog: "go", Instr: -1, Slot: -1, Msg: err.Error()})
		return res
	}
	if len(funcs) != len(rep.Units) {
		r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
			Prog: "go", Instr: -1, Slot: -1,
			Msg: fmt.Sprintf("emitted source has %d functions, expected %d", len(funcs), len(rep.Units))})
		return res
	}
	for i := range rep.Units {
		u := &rep.Units[i]
		lf := &funcs[i]
		if lf.Name != u.Name {
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: -1, Slot: -1,
				Msg: fmt.Sprintf("function %d is named %s, expected %s", i, lf.Name, u.Name)})
			continue
		}
		if lf.WordBits != rep.WordBits {
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: -1, Slot: -1,
				Msg: fmt.Sprintf("function %s takes []uint%d, expected []uint%d", lf.Name, lf.WordBits, rep.WordBits)})
			continue
		}
		checkUnitStream(u, lf, rep.WordBits, r, res)
	}
	return res
}

// normalizeInstr zeroes the fields an opcode does not use so that exact
// stream comparison is insensitive to don't-care operand values.
func normalizeInstr(in program.Instr) program.Instr {
	if !in.UsesA() {
		in.A = program.None
	}
	if !in.UsesBSlot() && in.Op != program.OpFillLowN {
		in.B = program.None
	}
	switch in.Op {
	case program.OpShlOr, program.OpShlMove, program.OpShrMove,
		program.OpFill, program.OpBit, program.OpFillLowN:
	default:
		in.Sh = 0
	}
	return in
}

// checkProjection proves the statement IR is a faithful projection of
// the source programs: one statement per non-nop instruction, in order,
// carrying that exact instruction.
func checkProjection(rep *ir.IR, units []ir.Source, r *verify.Report) {
	for i := range rep.Units {
		u := &rep.Units[i]
		p := units[i].Prog
		k := 0
		for idx := range p.Code {
			in := &p.Code[idx]
			if in.Op == program.OpNop {
				continue
			}
			if k >= len(u.Stmts) || u.Stmts[k].Index != idx || u.Stmts[k].In != *in {
				r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
					Prog: u.Name, Instr: idx, Slot: in.Dst,
					Msg: "statement IR is not a faithful projection of the program"})
				return
			}
			k++
		}
		if k != len(u.Stmts) {
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: -1, Slot: -1,
				Msg: fmt.Sprintf("statement IR has %d extra statements", len(u.Stmts)-k)})
		}
	}
}

// stmtMatch compares one lifted statement against the compiled
// instruction it should render. exact is true when the recognized
// instruction matches field-for-field, false when the word-level
// symbolic evaluator proves the values equal instead.
func stmtMatch(rs *ir.Stmt, ls *LiftedStmt, wb int) (exact, ok bool) {
	want := normalizeInstr(rs.In)
	if ls.Instr != nil && normalizeInstr(*ls.Instr) == want {
		return true, true
	}
	if ls.Dst != rs.In.Dst {
		return false, false
	}
	expect, ok1 := instrWord(&rs.In, wb)
	got, ok2 := liftedWord(ls, wb)
	return false, ok1 && ok2 && wordEq(expect, got)
}

// checkUnitStream aligns the lifted statement stream with the IR's and
// reports every divergence with the instruction coordinate as witness.
// On a length mismatch it resynchronizes by advancing the longer stream,
// so a single dropped or duplicated statement yields a single finding.
func checkUnitStream(u *ir.Unit, lf *LiftedFunc, wb int, r *verify.Report, res *Result) {
	i, j := 0, 0
	for i < len(u.Stmts) || j < len(lf.Stmts) {
		if i >= len(u.Stmts) {
			ls := &lf.Stmts[j]
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: -1, Slot: ls.Dst,
				Msg: fmt.Sprintf("extra statement at line %d: %s", ls.Line, describeRhs(ls))})
			j++
			continue
		}
		rs := &u.Stmts[i]
		if j >= len(lf.Stmts) {
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: rs.Index, Slot: rs.In.Dst,
				Msg: fmt.Sprintf("statement missing from emitted source: expected %s", describeInstr(&rs.In))})
			i++
			continue
		}
		ls := &lf.Stmts[j]
		if exact, ok := stmtMatch(rs, ls, wb); ok {
			if exact {
				res.Exact++
			} else {
				res.Semantic++
			}
			i++
			j++
			continue
		}
		switch {
		case len(u.Stmts)-i > len(lf.Stmts)-j:
			// More IR statements remain than lifted ones: a statement
			// was dropped here.
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: rs.Index, Slot: rs.In.Dst,
				Msg: fmt.Sprintf("statement missing from emitted source: expected %s", describeInstr(&rs.In))})
			i++
		case len(u.Stmts)-i < len(lf.Stmts)-j:
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: rs.Index, Slot: ls.Dst,
				Msg: fmt.Sprintf("extra statement at line %d: %s", ls.Line, describeRhs(ls))})
			j++
		default:
			r.Add(verify.Finding{Rule: verify.RuleLift, Severity: verify.SevError,
				Prog: u.Name, Instr: rs.Index, Slot: rs.In.Dst,
				Msg: fmt.Sprintf("statement at line %d diverges from compiled instruction: expected %s, lifted %s",
					ls.Line, describeInstr(&rs.In), describeRhs(ls))})
			i++
			j++
		}
	}
}

// Package ir is the language-neutral statement representation both code
// generation backends render from. Every generated statement — one per
// non-nop compiled instruction — is a Stmt carrying the instruction it
// was derived from plus its index in the source program, and the C and Go
// renderers are pure functions of a Stmt. The translation validator
// (package codegen/validate) lifts the Go rendering back to an
// instruction stream, which Go's own parser makes possible; the C
// rendering of the same statements is proven by compiling and running it
// (package codegen's tests).
package ir

import (
	"fmt"
	"strings"

	"udsim/internal/program"
)

// Language selects the output language.
type Language int

const (
	// C emits C99 using exact-width unsigned types.
	C Language = iota
	// Go emits a Go source file.
	Go
)

// String names the language.
func (l Language) String() string {
	if l == C {
		return "C"
	}
	return "Go"
}

// Source is a named program to emit as one function.
type Source struct {
	Name string
	Prog *program.Program
}

// Stmt is one language-neutral generated statement: the compiled
// instruction it renders plus its index in the source program (nops emit
// nothing, so statement index and instruction index can diverge) and the
// optional trailing comment.
type Stmt struct {
	// In is the instruction the statement computes.
	In program.Instr
	// Index is the instruction's index in the unit's program — the
	// coordinate every validation witness reports.
	Index int
	// Comment optionally annotates the statement (the destination's
	// variable name on gate evaluations).
	Comment string
}

// Unit is one function's statement stream.
type Unit struct {
	Name  string
	Stmts []Stmt
	// NumInstrs is the source program's instruction count (statement
	// indexes are coordinates into it; nops contribute no statement).
	NumInstrs int
}

// IR is the full emission: every unit's statement stream at one shared
// word width.
type IR struct {
	WordBits int
	Units    []Unit
}

// Build constructs the statement IR for the units, validating the shared
// word width. Nop instructions emit no statement.
func Build(units []Source) (*IR, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("codegen: no units")
	}
	wb := units[0].Prog.WordBits
	for _, u := range units {
		if u.Prog.WordBits != wb {
			return nil, fmt.Errorf("codegen: mixed word widths %d and %d", wb, u.Prog.WordBits)
		}
	}
	out := &IR{WordBits: wb}
	for _, u := range units {
		iu := Unit{Name: u.Name, NumInstrs: len(u.Prog.Code)}
		for i := range u.Prog.Code {
			in := &u.Prog.Code[i]
			if in.Op == program.OpNop {
				continue
			}
			st := Stmt{In: *in, Index: i}
			if in.Op == program.OpAnd {
				st.Comment = u.Prog.VarName(in.Dst)
			}
			iu.Stmts = append(iu.Stmts, st)
		}
		out.Units = append(out.Units, iu)
	}
	return out, nil
}

// StmtCount returns the total statement count (the paper's generated
// lines-of-code metric, excluding boilerplate).
func (ir *IR) StmtCount() int {
	n := 0
	for _, u := range ir.Units {
		n += len(u.Stmts)
	}
	return n
}

// WordType returns the exact-width unsigned type for W bits, which makes
// masking unnecessary: overflow truncates to exactly the logical word.
func WordType(lang Language, wordBits int) string {
	if lang == C {
		return fmt.Sprintf("uint%d_t", wordBits)
	}
	return fmt.Sprintf("uint%d", wordBits)
}

func v(i int32) string { return fmt.Sprintf("st[%d]", i) }

// RenderStmt renders one statement in the given language. It is a pure
// function of (lang, wordBits, stmt): the validator depends on that, since
// the statements it lifts must be the ones codegen.Emit writes.
func RenderStmt(lang Language, wb int, st *Stmt) (string, error) {
	if lang == C {
		return renderC(wb, st)
	}
	if lang != Go {
		return "", fmt.Errorf("codegen: unknown language %d", lang)
	}
	return renderGo(wb, st)
}

// renderC renders one statement as C99.
func renderC(wb int, st *Stmt) (string, error) {
	in := &st.In
	ty := WordType(C, wb)
	switch in.Op {
	case program.OpAnd:
		return fmt.Sprintf("%s = %s & %s; /* %s */", v(in.Dst), v(in.A), v(in.B), st.Comment), nil
	case program.OpOr:
		return fmt.Sprintf("%s = %s | %s;", v(in.Dst), v(in.A), v(in.B)), nil
	case program.OpXor:
		return fmt.Sprintf("%s = %s ^ %s;", v(in.Dst), v(in.A), v(in.B)), nil
	case program.OpNand:
		return fmt.Sprintf("%s = (%s)~(%s & %s);", v(in.Dst), ty, v(in.A), v(in.B)), nil
	case program.OpNor:
		return fmt.Sprintf("%s = (%s)~(%s | %s);", v(in.Dst), ty, v(in.A), v(in.B)), nil
	case program.OpXnor:
		return fmt.Sprintf("%s = (%s)~(%s ^ %s);", v(in.Dst), ty, v(in.A), v(in.B)), nil
	case program.OpNot:
		return fmt.Sprintf("%s = (%s)~%s;", v(in.Dst), ty, v(in.A)), nil
	case program.OpMove:
		return fmt.Sprintf("%s = %s;", v(in.Dst), v(in.A)), nil
	case program.OpOrMove:
		return fmt.Sprintf("%s |= %s;", v(in.Dst), v(in.A)), nil
	case program.OpConst0:
		return fmt.Sprintf("%s = 0;", v(in.Dst)), nil
	case program.OpConst1:
		return fmt.Sprintf("%s = (%s)~0;", v(in.Dst), ty), nil
	case program.OpShlOr:
		if in.B == program.None {
			return fmt.Sprintf("%s |= (%s)(%s << %d);", v(in.Dst), ty, v(in.A), in.Sh), nil
		}
		return fmt.Sprintf("%s |= (%s)((%s << %d) | (%s >> %d));",
			v(in.Dst), ty, v(in.A), in.Sh, v(in.B), wb-int(in.Sh)), nil
	case program.OpShlMove:
		if in.B == program.None {
			return fmt.Sprintf("%s = (%s)(%s << %d);", v(in.Dst), ty, v(in.A), in.Sh), nil
		}
		return fmt.Sprintf("%s = (%s)((%s << %d) | (%s >> %d));",
			v(in.Dst), ty, v(in.A), in.Sh, v(in.B), wb-int(in.Sh)), nil
	case program.OpShrMove:
		if in.B == program.None {
			return fmt.Sprintf("%s = %s >> %d;", v(in.Dst), v(in.A), in.Sh), nil
		}
		return fmt.Sprintf("%s = (%s)((%s >> %d) | (%s << %d));",
			v(in.Dst), ty, v(in.A), in.Sh, v(in.B), wb-int(in.Sh)), nil
	case program.OpFill:
		return fmt.Sprintf("%s = (%s)(0 - ((%s >> %d) & 1));",
			v(in.Dst), ty, v(in.A), in.Sh), nil
	case program.OpBit:
		return fmt.Sprintf("%s = (%s >> %d) & 1;", v(in.Dst), v(in.A), in.Sh), nil
	case program.OpFillLowN:
		return fmt.Sprintf("%s = (%s)((0 - ((%s >> %d) & 1)) & ((%s)~0 >> %d));",
			v(in.Dst), ty, v(in.A), in.Sh, ty, wb-int(in.B)), nil
	}
	return "", fmt.Errorf("codegen: unknown opcode %v", in.Op)
}

// renderGo renders one statement as Go.
func renderGo(wb int, st *Stmt) (string, error) {
	in := &st.In
	ty := WordType(Go, wb)
	switch in.Op {
	case program.OpAnd:
		return fmt.Sprintf("%s = %s & %s // %s", v(in.Dst), v(in.A), v(in.B), st.Comment), nil
	case program.OpOr:
		return fmt.Sprintf("%s = %s | %s", v(in.Dst), v(in.A), v(in.B)), nil
	case program.OpXor:
		return fmt.Sprintf("%s = %s ^ %s", v(in.Dst), v(in.A), v(in.B)), nil
	case program.OpNand:
		return fmt.Sprintf("%s = ^(%s & %s)", v(in.Dst), v(in.A), v(in.B)), nil
	case program.OpNor:
		return fmt.Sprintf("%s = ^(%s | %s)", v(in.Dst), v(in.A), v(in.B)), nil
	case program.OpXnor:
		return fmt.Sprintf("%s = ^(%s ^ %s)", v(in.Dst), v(in.A), v(in.B)), nil
	case program.OpNot:
		return fmt.Sprintf("%s = ^%s", v(in.Dst), v(in.A)), nil
	case program.OpMove:
		return fmt.Sprintf("%s = %s", v(in.Dst), v(in.A)), nil
	case program.OpOrMove:
		return fmt.Sprintf("%s |= %s", v(in.Dst), v(in.A)), nil
	case program.OpConst0:
		return fmt.Sprintf("%s = 0", v(in.Dst)), nil
	case program.OpConst1:
		return fmt.Sprintf("%s = ^%s(0)", v(in.Dst), ty), nil
	case program.OpShlOr:
		if in.B == program.None {
			return fmt.Sprintf("%s |= %s << %d", v(in.Dst), v(in.A), in.Sh), nil
		}
		return fmt.Sprintf("%s |= %s<<%d | %s>>%d", v(in.Dst), v(in.A), in.Sh, v(in.B), wb-int(in.Sh)), nil
	case program.OpShlMove:
		if in.B == program.None {
			return fmt.Sprintf("%s = %s << %d", v(in.Dst), v(in.A), in.Sh), nil
		}
		return fmt.Sprintf("%s = %s<<%d | %s>>%d", v(in.Dst), v(in.A), in.Sh, v(in.B), wb-int(in.Sh)), nil
	case program.OpShrMove:
		if in.B == program.None {
			return fmt.Sprintf("%s = %s >> %d", v(in.Dst), v(in.A), in.Sh), nil
		}
		return fmt.Sprintf("%s = %s>>%d | %s<<%d", v(in.Dst), v(in.A), in.Sh, v(in.B), wb-int(in.Sh)), nil
	case program.OpFill:
		return fmt.Sprintf("%s = -(%s >> %d & 1)", v(in.Dst), v(in.A), in.Sh), nil
	case program.OpBit:
		return fmt.Sprintf("%s = %s >> %d & 1", v(in.Dst), v(in.A), in.Sh), nil
	case program.OpFillLowN:
		return fmt.Sprintf("%s = -(%s >> %d & 1) & (^%s(0) >> %d)",
			v(in.Dst), v(in.A), in.Sh, ty, wb-int(in.B)), nil
	}
	return "", fmt.Errorf("codegen: unknown opcode %v", in.Op)
}

// Render renders the full source file for the IR: boilerplate plus one
// function per unit, each statement on its own line. name is the C file
// prefix or Go package name. It returns the source text and the emitted
// statement count.
func Render(lang Language, name string, ir *IR) (string, int, error) {
	ty := WordType(lang, ir.WordBits)
	var b strings.Builder
	stmts := 0
	switch lang {
	case C:
		fmt.Fprintf(&b, "/* %s: generated unit-delay compiled simulation code. */\n", name)
		fmt.Fprintf(&b, "#include <stdint.h>\n\n")
		for i := range ir.Units {
			u := &ir.Units[i]
			fmt.Fprintf(&b, "void %s(%s *st) {\n", u.Name, ty)
			for j := range u.Stmts {
				stmt, err := RenderStmt(C, ir.WordBits, &u.Stmts[j])
				if err != nil {
					return "", 0, err
				}
				fmt.Fprintf(&b, "\t%s\n", stmt)
				stmts++
			}
			fmt.Fprintf(&b, "}\n\n")
		}
	case Go:
		fmt.Fprintf(&b, "// Package %s holds generated unit-delay compiled simulation code.\n", name)
		fmt.Fprintf(&b, "package %s\n\n", name)
		for i := range ir.Units {
			u := &ir.Units[i]
			fmt.Fprintf(&b, "func %s(st []%s) {\n", u.Name, ty)
			if u.NumInstrs == 0 {
				fmt.Fprintf(&b, "\t_ = st\n")
			}
			for j := range u.Stmts {
				stmt, err := RenderStmt(Go, ir.WordBits, &u.Stmts[j])
				if err != nil {
					return "", 0, err
				}
				fmt.Fprintf(&b, "\t%s\n", stmt)
				stmts++
			}
			fmt.Fprintf(&b, "}\n\n")
		}
	default:
		return "", 0, fmt.Errorf("codegen: unknown language %d", lang)
	}
	return b.String(), stmts, nil
}

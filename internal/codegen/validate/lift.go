// Package validate is the translation validator for emitted simulation
// code. It lifts the Go rendering back to a program.Program instruction
// stream with go/ast and proves each lifted statement equivalent to the
// compiled instruction it was rendered from (exact stream match where
// the emitter is deterministic, word-level symbolic evaluation where a
// statement is canonicalized differently), statement by statement and
// in order. Findings surface as verify rule V016.
//
// The C rendering comes from the same statement IR; package codegen's
// tests compile it and run it against the instruction streams.
package validate

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"

	"udsim/internal/program"
)

// LiftedStmt is one assignment lifted from the emitted Go source.
type LiftedStmt struct {
	// Dst is the state slot the statement writes.
	Dst int32
	// OrAssign is true for `st[d] |= ...` (accumulating) statements.
	OrAssign bool
	// Rhs is the parsed right-hand side, kept for symbolic evaluation.
	Rhs ast.Expr
	// Instr is the recognized instruction, or nil when the statement
	// matches none of the emitter's statement shapes (the symbolic
	// fallback then carries the proof burden alone).
	Instr *program.Instr
	// Line is the source line, for diagnostics.
	Line int
}

// LiftedFunc is one generated function lifted back to a statement stream.
type LiftedFunc struct {
	Name     string
	WordBits int
	Stmts    []LiftedStmt
	// Placeholder is true when the body was the single `_ = st`
	// statement the emitter writes for an empty program.
	Placeholder bool
}

// LiftGo parses emitted Go source and lifts every function back to a
// statement stream. It is strict: any construct outside the emitted
// grammar's envelope (declarations other than functions, statements other
// than single assignments to st[i], non-constant indices or shift
// counts) is an error — the validator converts that into a V016 finding
// rather than guessing.
func LiftGo(src string) ([]LiftedFunc, error) {
	fset := token.NewFileSet()
	// The lifter reads no objects or scopes, so the resolver's pass is
	// skipped.
	f, err := parser.ParseFile(fset, "generated.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lift: %w", err)
	}
	var out []LiftedFunc
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			return nil, fmt.Errorf("lift: non-function declaration at line %d", fset.Position(d.Pos()).Line)
		}
		lf, err := liftFunc(fset, fd)
		if err != nil {
			return nil, err
		}
		out = append(out, lf)
	}
	return out, nil
}

func liftFunc(fset *token.FileSet, fd *ast.FuncDecl) (LiftedFunc, error) {
	lf := LiftedFunc{Name: fd.Name.Name}
	bad := func(format string, args ...any) (LiftedFunc, error) {
		return lf, fmt.Errorf("lift: func %s: %s", fd.Name.Name, fmt.Sprintf(format, args...))
	}
	if fd.Recv != nil || fd.Type.Results != nil || fd.Type.Params == nil ||
		len(fd.Type.Params.List) != 1 {
		return bad("signature is not func(st []uintN)")
	}
	p := fd.Type.Params.List[0]
	if len(p.Names) != 1 || p.Names[0].Name != "st" {
		return bad("parameter is not named st")
	}
	at, ok := p.Type.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return bad("parameter is not a slice")
	}
	elem, ok := at.Elt.(*ast.Ident)
	if !ok {
		return bad("parameter element type is not an identifier")
	}
	wb, ok := wordBitsOf(elem.Name)
	if !ok {
		return bad("parameter element type %s is not uint8/16/32/64", elem.Name)
	}
	lf.WordBits = wb
	if fd.Body == nil {
		return bad("no body")
	}
	for _, s := range fd.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return bad("statement at line %d is not a single assignment", fset.Position(s.Pos()).Line)
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
			// The `_ = st` placeholder of an empty program: only valid
			// as the body's sole statement.
			if rhs, ok := as.Rhs[0].(*ast.Ident); ok && rhs.Name == "st" &&
				as.Tok == token.ASSIGN && len(fd.Body.List) == 1 {
				lf.Placeholder = true
				return lf, nil
			}
			return bad("unexpected blank assignment at line %d", fset.Position(s.Pos()).Line)
		}
		dst, ok := slotOf(as.Lhs[0])
		if !ok {
			return bad("assignment target at line %d is not st[const]", fset.Position(s.Pos()).Line)
		}
		var orAssign bool
		switch as.Tok {
		case token.ASSIGN:
		case token.OR_ASSIGN:
			orAssign = true
		default:
			return bad("assignment operator %s at line %d", as.Tok, fset.Position(s.Pos()).Line)
		}
		ls := LiftedStmt{
			Dst:      dst,
			OrAssign: orAssign,
			Rhs:      as.Rhs[0],
			Line:     fset.Position(s.Pos()).Line,
		}
		if in, ok := recognize(dst, orAssign, as.Rhs[0], wb); ok {
			ls.Instr = &in
		}
		lf.Stmts = append(lf.Stmts, ls)
	}
	return lf, nil
}

func wordBitsOf(name string) (int, bool) {
	switch name {
	case "uint8":
		return 8, true
	case "uint16":
		return 16, true
	case "uint32":
		return 32, true
	case "uint64":
		return 64, true
	}
	return 0, false
}

// slotOf matches st[<int literal>] and returns the slot.
func slotOf(e ast.Expr) (int32, bool) {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return 0, false
	}
	base, ok := ix.X.(*ast.Ident)
	if !ok || base.Name != "st" {
		return 0, false
	}
	v, ok := intLit(ix.Index)
	if !ok || v > 1<<30 {
		return 0, false
	}
	return int32(v), true
}

// intLit matches a (possibly parenthesized) integer literal.
func intLit(e ast.Expr) (uint64, bool) {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.ParseUint(bl.Value, 0, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// shiftOf matches `st[a] OP k` for a shift token, returning slot and
// count.
func shiftOf(e ast.Expr, op token.Token) (int32, int, bool) {
	be, ok := unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return 0, 0, false
	}
	a, ok := slotOf(be.X)
	if !ok {
		return 0, 0, false
	}
	k, ok := intLit(be.Y)
	if !ok || k > 255 {
		return 0, 0, false
	}
	return a, int(k), true
}

// allOnesOf matches `^uintN(0)` for the function's word width.
func allOnesOf(e ast.Expr, wb int) bool {
	ue, ok := unparen(e).(*ast.UnaryExpr)
	if !ok || ue.Op != token.XOR {
		return false
	}
	call, ok := unparen(ue.X).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	n, ok := wordBitsOf(fn.Name)
	if !ok || n != wb {
		return false
	}
	v, ok := intLit(call.Args[0])
	return ok && v == 0
}

// bitExprOf matches `st[a] >> k & 1`, the extracted-bit idiom OpFill,
// OpBit and OpFillLowN all build on.
func bitExprOf(e ast.Expr) (int32, int, bool) {
	be, ok := unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.AND {
		return 0, 0, false
	}
	one, ok := intLit(be.Y)
	if !ok || one != 1 {
		return 0, 0, false
	}
	return shiftOf(be.X, token.SHR)
}

// recognize pattern-matches a lifted assignment against the emitter's
// statement grammar and reconstructs the instruction. A false return is
// not a verdict — the symbolic evaluator decides equivalence for any
// shape the recognizer does not know.
func recognize(dst int32, orAssign bool, rhs ast.Expr, wb int) (program.Instr, bool) {
	e := unparen(rhs)
	none := program.None
	if orAssign {
		// st[d] |= st[a]                      -> OpOrMove
		// st[d] |= st[a] << k                 -> OpShlOr (no carry)
		// st[d] |= st[a]<<k | st[b]>>(wb-k)   -> OpShlOr (carry)
		if a, ok := slotOf(e); ok {
			return program.Instr{Op: program.OpOrMove, Dst: dst, A: a, B: none}, true
		}
		if a, k, ok := shiftOf(e, token.SHL); ok && k < wb {
			return program.Instr{Op: program.OpShlOr, Dst: dst, A: a, B: none, Sh: uint8(k)}, true
		}
		if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.OR {
			a, k, okA := shiftOf(be.X, token.SHL)
			b, m, okB := shiftOf(be.Y, token.SHR)
			if okA && okB && k < wb && m == wb-k {
				return program.Instr{Op: program.OpShlOr, Dst: dst, A: a, B: b, Sh: uint8(k)}, true
			}
		}
		return program.Instr{}, false
	}
	// Plain assignments.
	if a, ok := slotOf(e); ok {
		return program.Instr{Op: program.OpMove, Dst: dst, A: a, B: none}, true
	}
	if v, ok := intLit(e); ok && v == 0 {
		return program.Instr{Op: program.OpConst0, Dst: dst, A: none, B: none}, true
	}
	if allOnesOf(e, wb) {
		return program.Instr{Op: program.OpConst1, Dst: dst, A: none, B: none}, true
	}
	if a, k, ok := bitExprOf(e); ok && k < wb {
		return program.Instr{Op: program.OpBit, Dst: dst, A: a, B: none, Sh: uint8(k)}, true
	}
	if a, k, ok := shiftOf(e, token.SHL); ok && k < wb {
		return program.Instr{Op: program.OpShlMove, Dst: dst, A: a, B: none, Sh: uint8(k)}, true
	}
	if a, k, ok := shiftOf(e, token.SHR); ok && k < wb {
		return program.Instr{Op: program.OpShrMove, Dst: dst, A: a, B: none, Sh: uint8(k)}, true
	}
	switch ex := e.(type) {
	case *ast.UnaryExpr:
		switch ex.Op {
		case token.XOR:
			// ^st[a] and ^(st[a] OP st[b]).
			if a, ok := slotOf(ex.X); ok {
				return program.Instr{Op: program.OpNot, Dst: dst, A: a, B: none}, true
			}
			if be, ok := unparen(ex.X).(*ast.BinaryExpr); ok {
				a, okA := slotOf(be.X)
				b, okB := slotOf(be.Y)
				if okA && okB {
					switch be.Op {
					case token.AND:
						return program.Instr{Op: program.OpNand, Dst: dst, A: a, B: b}, true
					case token.OR:
						return program.Instr{Op: program.OpNor, Dst: dst, A: a, B: b}, true
					case token.XOR:
						return program.Instr{Op: program.OpXnor, Dst: dst, A: a, B: b}, true
					}
				}
			}
		case token.SUB:
			// -(st[a] >> k & 1) -> OpFill.
			if a, k, ok := bitExprOf(ex.X); ok && k < wb {
				return program.Instr{Op: program.OpFill, Dst: dst, A: a, B: none, Sh: uint8(k)}, true
			}
		}
	case *ast.BinaryExpr:
		if a, okA := slotOf(ex.X); okA {
			if b, okB := slotOf(ex.Y); okB {
				switch ex.Op {
				case token.AND:
					return program.Instr{Op: program.OpAnd, Dst: dst, A: a, B: b}, true
				case token.OR:
					return program.Instr{Op: program.OpOr, Dst: dst, A: a, B: b}, true
				case token.XOR:
					return program.Instr{Op: program.OpXor, Dst: dst, A: a, B: b}, true
				}
			}
		}
		if ex.Op == token.OR {
			// st[a]>>k | st[b]<<(wb-k)  -> OpShrMove (carry)
			// st[a]<<k | st[b]>>(wb-k)  -> OpShlMove (carry)
			if a, k, okA := shiftOf(ex.X, token.SHR); okA {
				if b, m, okB := shiftOf(ex.Y, token.SHL); okB && k < wb && m == wb-k {
					return program.Instr{Op: program.OpShrMove, Dst: dst, A: a, B: b, Sh: uint8(k)}, true
				}
			}
			if a, k, okA := shiftOf(ex.X, token.SHL); okA {
				if b, m, okB := shiftOf(ex.Y, token.SHR); okB && k < wb && m == wb-k {
					return program.Instr{Op: program.OpShlMove, Dst: dst, A: a, B: b, Sh: uint8(k)}, true
				}
			}
		}
		if ex.Op == token.AND {
			// -(st[a] >> k & 1) & (^uintN(0) >> m)  -> OpFillLowN, B = wb-m.
			ue, ok := unparen(ex.X).(*ast.UnaryExpr)
			if ok && ue.Op == token.SUB {
				if a, k, okA := bitExprOf(ue.X); okA && k < wb {
					if maskE, ok := unparen(ex.Y).(*ast.BinaryExpr); ok && maskE.Op == token.SHR {
						if allOnesOf(maskE.X, wb) {
							if m, ok := intLit(maskE.Y); ok && m < uint64(wb) {
								return program.Instr{Op: program.OpFillLowN, Dst: dst, A: a,
									B: int32(wb) - int32(m), Sh: uint8(k)}, true
							}
						}
					}
				}
			}
		}
	}
	return program.Instr{}, false
}

// evalExpr symbolically evaluates a lifted right-hand side to a W-bit
// word. ok is false when the expression uses a construct outside the
// evaluable fragment or a bit's support exceeds the cap — inconclusive,
// which the caller must treat as divergence.
func evalExpr(e ast.Expr, wb int) (word, bool) {
	e = unparen(e)
	if s, ok := slotOf(e); ok {
		return slotWord(s, wb), true
	}
	if v, ok := intLit(e); ok {
		return constWord(truncate(v, wb), wb), true
	}
	switch ex := e.(type) {
	case *ast.UnaryExpr:
		x, ok := evalExpr(ex.X, wb)
		if !ok {
			return word{}, false
		}
		switch ex.Op {
		case token.XOR:
			return wordNot(x), true
		case token.SUB:
			return wordNeg(x)
		}
		return word{}, false
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.SHL, token.SHR:
			x, ok := evalExpr(ex.X, wb)
			if !ok {
				return word{}, false
			}
			k, ok := intLit(ex.Y)
			if !ok {
				return word{}, false
			}
			if k >= uint64(wb) {
				return constWord(0, wb), true
			}
			if ex.Op == token.SHL {
				return wordShl(x, int(k)), true
			}
			return wordShr(x, int(k)), true
		}
		x, ok := evalExpr(ex.X, wb)
		if !ok {
			return word{}, false
		}
		y, ok := evalExpr(ex.Y, wb)
		if !ok {
			return word{}, false
		}
		switch ex.Op {
		case token.AND:
			return wordAnd(x, y)
		case token.OR:
			return wordOr(x, y)
		case token.XOR:
			return wordXor(x, y)
		case token.AND_NOT:
			return wordAnd(x, wordNot(y))
		case token.ADD:
			return wordAdd(x, y, false)
		case token.SUB:
			n, ok := wordNeg(y)
			if !ok {
				return word{}, false
			}
			return wordAdd(x, n, false)
		}
		return word{}, false
	case *ast.CallExpr:
		// uintN(x) with N == wb is the identity in this width.
		fn, ok := ex.Fun.(*ast.Ident)
		if !ok || len(ex.Args) != 1 {
			return word{}, false
		}
		n, ok := wordBitsOf(fn.Name)
		if !ok || n != wb {
			return word{}, false
		}
		return evalExpr(ex.Args[0], wb)
	}
	return word{}, false
}

func truncate(v uint64, wb int) uint64 {
	if wb >= 64 {
		return v
	}
	return v & (uint64(1)<<uint(wb) - 1)
}

// liftedWord is the symbolic post-value of the statement's destination:
// the evaluated right-hand side, folded over the old destination value
// for accumulating assignments.
func liftedWord(ls *LiftedStmt, wb int) (word, bool) {
	w, ok := evalExpr(ls.Rhs, wb)
	if !ok {
		return word{}, false
	}
	if ls.OrAssign {
		return wordOr(slotWord(ls.Dst, wb), w)
	}
	return w, true
}

// describeRhs renders a short description of a lifted statement for
// diagnostics.
func describeRhs(ls *LiftedStmt) string {
	op := "="
	if ls.OrAssign {
		op = "|="
	}
	if ls.Instr != nil {
		return fmt.Sprintf("st[%d] %s <%s A=%d B=%d Sh=%d>", ls.Dst, op,
			ls.Instr.Op, ls.Instr.A, ls.Instr.B, ls.Instr.Sh)
	}
	return fmt.Sprintf("st[%d] %s <unrecognized expression>", ls.Dst, op)
}

// describeInstr renders the expected instruction for a witness message.
func describeInstr(in *program.Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s dst=%d", in.Op, in.Dst)
	if in.UsesA() {
		fmt.Fprintf(&b, " a=%d", in.A)
	}
	if in.UsesBSlot() && in.B != program.None {
		fmt.Fprintf(&b, " b=%d", in.B)
	}
	if in.Sh != 0 {
		fmt.Fprintf(&b, " sh=%d", in.Sh)
	}
	if in.Op == program.OpFillLowN {
		fmt.Fprintf(&b, " n=%d", in.B)
	}
	return b.String()
}

package vet

import (
	"go/ast"
	"go/token"
)

// atomicMethods is the atomic.Int64 API; a counter field may only be
// touched through it.
var atomicMethods = map[string]bool{
	"Add": true, "Load": true, "Store": true,
	"Swap": true, "CompareAndSwap": true,
}

// AtomicCounter returns the analyzer that flags non-atomic access to
// the runtime counter fields of package internal/obs. A counter field
// is any struct field of type atomic.Int64 (scalar, slice or array
// element) declared in a file of package obs; vector-batch blocks hammer
// these concurrently, so a direct read, write or copy is a data race
// the race detector only catches if a test happens to exercise the
// interleaving. Allowed accesses: the atomic method set (Add, Load,
// Store, Swap, CompareAndSwap), indexing into a counter slice/array on
// the way to one, len/cap, ranging over a slice for its indices, and
// Attach's documented (re)initialization — assigning make(...) or nil
// to a counter slice.
func AtomicCounter() *Analyzer {
	return &Analyzer{
		Name: "atomiccounter",
		Doc:  "flag non-atomic access to internal/obs counter fields (use Add/Load/Store)",
		Run:  runAtomicCounter,
	}
}

func runAtomicCounter(p *Pass) {
	// First pass: collect counter field names from package obs structs.
	counters := map[string]bool{}
	for _, f := range p.Files {
		if f.AST.Name.Name != "obs" {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !isAtomicInt64Type(fld.Type) {
					continue
				}
				for _, name := range fld.Names {
					counters[name.Name] = true
				}
			}
			return true
		})
	}
	if len(counters) == 0 {
		return
	}

	// Second pass: every selector of a counter field must sit in an
	// allowed context. The counters are unexported, so only obs files
	// can touch them.
	for _, f := range p.Files {
		if f.AST.Name.Name != "obs" {
			continue
		}
		var stack []ast.Node
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !counters[sel.Sel.Name] {
				return true
			}
			// x.f where f names a counter and x is not a package or
			// method chain: require an allowed enclosing context.
			if !allowedCounterContext(stack, sel) {
				p.Report(sel, "non-atomic access to counter field %s (use the atomic.Int64 API)", sel.Sel.Name)
			}
			return true
		})
	}
}

// isAtomicInt64Type reports whether the field type is atomic.Int64 or a
// slice/array of it.
func isAtomicInt64Type(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.SelectorExpr:
		id, ok := tt.X.(*ast.Ident)
		return ok && id.Name == "atomic" && tt.Sel.Name == "Int64"
	case *ast.ArrayType:
		return isAtomicInt64Type(tt.Elt)
	}
	return false
}

// allowedCounterContext walks outward from the counter selector and
// decides whether the use is atomic-API-safe. stack holds the ancestor
// chain ending at sel.
func allowedCounterContext(stack []ast.Node, sel *ast.SelectorExpr) bool {
	// Find sel's position in the stack (it is the last element).
	cur := ast.Node(sel)
	for i := len(stack) - 2; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.IndexExpr:
			if parent.X != cur {
				return false // counter used as an index — a raw read
			}
			cur = parent // climbing through steps[i] toward a method
		case *ast.SelectorExpr:
			// steps[i].Add / vectors.Load: the next frame up must call it.
			return atomicMethods[parent.Sel.Name] && parent.X == cur
		case *ast.UnaryExpr:
			// &o.cells[i]-style addressing keeps atomicity (the pointee
			// is still driven through the API); anything else is a read.
			return parent.Op.String() == "&"
		case *ast.CallExpr:
			// len(o.steps) / cap(o.steps) only.
			if id, ok := parent.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return true
			}
			return false
		case *ast.RangeStmt:
			// for i := range o.steps — iterating a counter slice for its
			// indices; ranging a scalar cannot occur.
			return parent.X == cur
		case *ast.BinaryExpr:
			// if o.steps != nil — comparing a counter slice's header
			// against nil reads no counter memory.
			if parent.Op == token.EQL || parent.Op == token.NEQ {
				other := parent.X
				if other == cur {
					other = parent.Y
				}
				if id, ok := other.(*ast.Ident); ok && id.Name == "nil" {
					return true
				}
			}
			return false
		case *ast.AssignStmt:
			// Attach re-initialization: counter slices may be assigned
			// make(...) or nil wholesale.
			for j, lhs := range parent.Lhs {
				if lhs != cur {
					continue
				}
				if j < len(parent.Rhs) {
					if rhsAllowsReinit(parent.Rhs[j]) {
						return true
					}
				} else if len(parent.Rhs) == 1 {
					if rhsAllowsReinit(parent.Rhs[0]) {
						return true
					}
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

// rhsAllowsReinit accepts make(...) calls and nil for counter-slice
// (re)initialization.
func rhsAllowsReinit(e ast.Expr) bool {
	switch r := e.(type) {
	case *ast.CallExpr:
		id, ok := r.Fun.(*ast.Ident)
		return ok && id.Name == "make"
	case *ast.Ident:
		return r.Name == "nil"
	}
	return false
}

package logic

import (
	"testing"
	"testing/quick"
)

func TestGateTypeString(t *testing.T) {
	cases := map[GateType]string{
		Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
		Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
		Const0: "CONST0", Const1: "CONST1",
	}
	for gt, want := range cases {
		if got := gt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", gt, got, want)
		}
	}
	if got := GateType(200).String(); got != "GateType(200)" {
		t.Errorf("invalid type String() = %q", got)
	}
}

func TestParseGateTypeRoundTrip(t *testing.T) {
	for _, gt := range AllGateTypes() {
		parsed, err := ParseGateType(gt.String())
		if err != nil {
			t.Fatalf("ParseGateType(%q): %v", gt.String(), err)
		}
		if parsed != gt {
			t.Errorf("round trip %v -> %v", gt, parsed)
		}
	}
}

func TestParseGateTypeAliases(t *testing.T) {
	for alias, want := range map[string]GateType{
		"BUFF": Buf, "BUFFER": Buf, "INV": Not, "INVERT": Not,
	} {
		got, err := ParseGateType(alias)
		if err != nil {
			t.Fatalf("ParseGateType(%q): %v", alias, err)
		}
		if got != want {
			t.Errorf("ParseGateType(%q) = %v, want %v", alias, got, want)
		}
	}
}

func TestParseGateTypeUnknown(t *testing.T) {
	if _, err := ParseGateType("FROB"); err == nil {
		t.Error("expected error for unknown gate type")
	}
}

func TestFaninBounds(t *testing.T) {
	cases := []struct {
		t        GateType
		min, max int
	}{
		{Const0, 0, 0}, {Const1, 0, 0},
		{Buf, 1, 1}, {Not, 1, 1},
		{And, 2, -1}, {Nand, 2, -1}, {Or, 2, -1},
		{Nor, 2, -1}, {Xor, 2, -1}, {Xnor, 2, -1},
	}
	for _, c := range cases {
		if got := c.t.MinInputs(); got != c.min {
			t.Errorf("%v.MinInputs() = %d, want %d", c.t, got, c.min)
		}
		if got := c.t.MaxInputs(); got != c.max {
			t.Errorf("%v.MaxInputs() = %d, want %d", c.t, got, c.max)
		}
	}
}

func TestInvertingAndBase(t *testing.T) {
	for _, gt := range AllGateTypes() {
		base := gt.Base()
		if base.Inverting() {
			t.Errorf("Base(%v) = %v is inverting", gt, base)
		}
		switch gt {
		case Not, Nand, Nor, Xnor:
			if !gt.Inverting() {
				t.Errorf("%v should be inverting", gt)
			}
		default:
			if gt.Inverting() {
				t.Errorf("%v should not be inverting", gt)
			}
			if base != gt {
				t.Errorf("Base(%v) = %v, want itself", gt, base)
			}
		}
	}
}

// evalRef is an independent truth-table reference for two-input gates.
func evalRef(t GateType, a, b bool) bool {
	switch t {
	case And:
		return a && b
	case Nand:
		return !(a && b)
	case Or:
		return a || b
	case Nor:
		return !(a || b)
	case Xor:
		return a != b
	case Xnor:
		return a == b
	}
	panic("not a 2-input type")
}

func TestEvalWordTwoInputTruthTables(t *testing.T) {
	two := []GateType{And, Nand, Or, Nor, Xor, Xnor}
	for _, gt := range two {
		for i := 0; i < 4; i++ {
			a, b := i&1 == 1, i&2 == 2
			var wa, wb uint64
			if a {
				wa = 1
			}
			if b {
				wb = 1
			}
			got := gt.EvalWord([]uint64{wa, wb})&1 == 1
			if want := evalRef(gt, a, b); got != want {
				t.Errorf("%v(%v,%v) = %v, want %v", gt, a, b, got, want)
			}
		}
	}
}

func TestEvalWordUnary(t *testing.T) {
	if Buf.EvalWord([]uint64{0xDEAD}) != 0xDEAD {
		t.Error("BUF should pass through")
	}
	if Not.EvalWord([]uint64{0}) != ^uint64(0) {
		t.Error("NOT of 0 should be all ones")
	}
	if Const0.EvalWord(nil) != 0 {
		t.Error("CONST0 should be 0")
	}
	if Const1.EvalWord(nil) != ^uint64(0) {
		t.Error("CONST1 should be all ones")
	}
}

// TestEvalWordBitParallel checks that word evaluation equals 64 independent
// scalar evaluations — the property the parallel technique relies on.
func TestEvalWordBitParallel(t *testing.T) {
	f := func(a, b, c uint64) bool {
		for _, gt := range []GateType{And, Nand, Or, Nor, Xor, Xnor} {
			w := gt.EvalWord([]uint64{a, b, c})
			for bit := 0; bit < 64; bit++ {
				in := []bool{a>>bit&1 == 1, b>>bit&1 == 1, c>>bit&1 == 1}
				if gt.EvalBool(in) != (w>>bit&1 == 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEvalWordMultiInput(t *testing.T) {
	// 5-input AND: only all-ones bit positions survive.
	ins := []uint64{0b11111, 0b11110, 0b11111, 0b01111, 0b11111}
	if got := And.EvalWord(ins) & 0b11111; got != 0b01110 {
		t.Errorf("5-input AND = %05b, want 01110", got)
	}
	// 3-input XOR is parity.
	if got := Xor.EvalWord([]uint64{1, 1, 1}) & 1; got != 1 {
		t.Errorf("XOR(1,1,1) = %d, want 1", got)
	}
}

func TestV3String(t *testing.T) {
	if V0.String() != "0" || V1.String() != "1" || VX.String() != "X" {
		t.Error("V3 string forms wrong")
	}
	if V3(9).String() != "?" {
		t.Error("invalid V3 should print ?")
	}
	if !V0.Valid() || !V1.Valid() || !VX.Valid() || V3(3).Valid() {
		t.Error("V3 validity wrong")
	}
}

func TestFromBool(t *testing.T) {
	if FromBool(true) != V1 || FromBool(false) != V0 {
		t.Error("FromBool wrong")
	}
}

// TestEval3AgreesWithBoolOnKnown: when no input is X, the three-valued
// evaluation must agree with the two-valued one.
func TestEval3AgreesWithBoolOnKnown(t *testing.T) {
	for _, gt := range AllGateTypes() {
		n := gt.MinInputs()
		if n == 0 {
			if gt.Eval3(nil) != FromBool(gt.EvalBool(nil)) {
				t.Errorf("%v const mismatch", gt)
			}
			continue
		}
		if n < 3 && gt.MaxInputs() == -1 {
			n = 3 // exercise multi-input folding too
		}
		for mask := 0; mask < 1<<n; mask++ {
			bs := make([]bool, n)
			vs := make([]V3, n)
			for i := range bs {
				bs[i] = mask>>i&1 == 1
				vs[i] = FromBool(bs[i])
			}
			if gt.Eval3(vs) != FromBool(gt.EvalBool(bs)) {
				t.Errorf("%v mismatch on %v", gt, bs)
			}
		}
	}
}

func TestEval3ControllingValuesDominateX(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []V3
		want V3
	}{
		{And, []V3{V0, VX}, V0},
		{And, []V3{V1, VX}, VX},
		{Nand, []V3{V0, VX}, V1},
		{Or, []V3{V1, VX}, V1},
		{Or, []V3{V0, VX}, VX},
		{Nor, []V3{V1, VX}, V0},
		{Xor, []V3{V1, VX}, VX},
		{Xnor, []V3{V0, VX}, VX},
		{Not, []V3{VX}, VX},
		{Buf, []V3{VX}, VX},
	}
	for _, c := range cases {
		if got := c.t.Eval3(c.in); got != c.want {
			t.Errorf("%v%v = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestEval3Monotone(t *testing.T) {
	// Kleene logic is monotone w.r.t. the information order X ⊑ 0, X ⊑ 1:
	// refining an X input must never change a known output.
	two := []GateType{And, Nand, Or, Nor, Xor, Xnor}
	vals := []V3{V0, V1, VX}
	for _, gt := range two {
		for _, a := range vals {
			for _, b := range vals {
				out := gt.Eval3([]V3{a, b})
				if out == VX {
					continue
				}
				for _, ra := range refine(a) {
					for _, rb := range refine(b) {
						if got := gt.Eval3([]V3{ra, rb}); got != out {
							t.Errorf("%v(%v,%v)=%v but refinement (%v,%v)=%v",
								gt, a, b, out, ra, rb, got)
						}
					}
				}
			}
		}
	}
}

func refine(v V3) []V3 {
	if v == VX {
		return []V3{V0, V1}
	}
	return []V3{v}
}

// TestEvalBoolAllocationFree pins the reference evaluators' per-gate
// call: ResetConsistent settles every gate through it.
func TestEvalBoolAllocationFree(t *testing.T) {
	in := []bool{true, false, true}
	allocs := testing.AllocsPerRun(100, func() {
		for _, gt := range []GateType{And, Nand, Or, Nor, Xor, Xnor} {
			gt.EvalBool(in)
		}
		Buf.EvalBool(in[:1])
		Not.EvalBool(in[:1])
	})
	if allocs != 0 {
		t.Errorf("EvalBool allocates %v times per call set, want 0", allocs)
	}
}

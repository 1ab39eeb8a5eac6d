// Package logic defines the logic value domains and gate functions used by
// every simulation engine in this repository.
//
// Two domains are supported: the two-valued Boolean domain used by all of
// the compiled techniques in the paper, evaluated bit-parallel over machine
// words, and the three-valued domain (0, 1, X) used by the baseline
// interpreted event-driven simulator.
package logic

import "fmt"

// GateType enumerates the primitive gate functions supported by the circuit
// model. The set matches what the ISCAS-85 benchmarks require plus constant
// drivers used when breaking sequential circuits at flip-flops.
type GateType uint8

const (
	// Buf is the identity function of one input.
	Buf GateType = iota
	// Not is Boolean negation of one input.
	Not
	// And is the conjunction of all inputs.
	And
	// Nand is the negated conjunction of all inputs.
	Nand
	// Or is the disjunction of all inputs.
	Or
	// Nor is the negated disjunction of all inputs.
	Nor
	// Xor is the parity of all inputs.
	Xor
	// Xnor is the complement of the parity of all inputs.
	Xnor
	// Const0 drives constant zero and takes no inputs.
	Const0
	// Const1 drives constant one and takes no inputs.
	Const1

	numGateTypes
)

var gateNames = [numGateTypes]string{
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	Const0: "CONST0",
	Const1: "CONST1",
}

// String returns the conventional upper-case mnemonic for the gate type.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Valid reports whether t is one of the defined gate types.
func (t GateType) Valid() bool { return t < numGateTypes }

// ParseGateType converts an upper-case mnemonic (as used by the ISCAS-85
// .bench format) to a GateType. The comparison is case-sensitive on the
// canonical upper-case form; callers should upper-case first.
func ParseGateType(s string) (GateType, error) {
	for t, n := range gateNames {
		if n == s {
			return GateType(t), nil
		}
	}
	// Common aliases seen in .bench dialects.
	switch s {
	case "BUFF", "BUFFER":
		return Buf, nil
	case "INV", "INVERT":
		return Not, nil
	}
	return 0, fmt.Errorf("logic: unknown gate type %q", s)
}

// MinInputs returns the minimum legal number of inputs for the gate type.
func (t GateType) MinInputs() int {
	switch t {
	case Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxInputs returns the maximum legal number of inputs for the gate type,
// or -1 when the fanin is unbounded.
func (t GateType) MaxInputs() int {
	switch t {
	case Const0, Const1:
		return 0
	case Buf, Not:
		return 1
	default:
		return -1
	}
}

// Inverting reports whether the gate's output is the complement of the
// corresponding non-inverting function (NAND, NOR, XNOR, NOT).
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// Base returns the non-inverting counterpart of t: NAND→AND, NOR→OR,
// XNOR→XOR, NOT→BUF. Non-inverting types return themselves.
func (t GateType) Base() GateType {
	switch t {
	case Not:
		return Buf
	case Nand:
		return And
	case Nor:
		return Or
	case Xnor:
		return Xor
	}
	return t
}

// EvalWord evaluates the gate function bit-parallel over 64-bit words.
// Each bit position is an independent two-valued evaluation. The inputs
// slice must satisfy the gate's fanin constraints; Const gates ignore it.
func (t GateType) EvalWord(inputs []uint64) uint64 {
	switch t {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case Buf:
		return inputs[0]
	case Not:
		return ^inputs[0]
	case And, Nand:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v &= in
		}
		if t == Nand {
			v = ^v
		}
		return v
	case Or, Nor:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v |= in
		}
		if t == Nor {
			v = ^v
		}
		return v
	case Xor, Xnor:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v ^= in
		}
		if t == Xnor {
			v = ^v
		}
		return v
	}
	panic("logic: EvalWord on invalid gate type")
}

// EvalBool evaluates the gate function on single two-valued inputs. It
// is the scalar counterpart of EvalWord, written out separately so the
// reference evaluators that call it per gate allocate nothing.
func (t GateType) EvalBool(inputs []bool) bool {
	switch t {
	case Const0:
		return false
	case Const1:
		return true
	case Buf:
		return inputs[0]
	case Not:
		return !inputs[0]
	case And, Nand:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v = v && in
		}
		return v != (t == Nand)
	case Or, Nor:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v = v || in
		}
		return v != (t == Nor)
	case Xor, Xnor:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v = v != in
		}
		return v != (t == Xnor)
	}
	panic("logic: EvalBool on invalid gate type")
}

// V3 is a three-valued logic value: zero, one, or unknown.
type V3 uint8

const (
	// V0 is logic zero.
	V0 V3 = 0
	// V1 is logic one.
	V1 V3 = 1
	// VX is the unknown value.
	VX V3 = 2
)

// String returns "0", "1" or "X".
func (v V3) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	case VX:
		return "X"
	}
	return "?"
}

// Valid reports whether v is one of the three defined values.
func (v V3) Valid() bool { return v <= VX }

// FromBool converts a two-valued value to the three-valued domain.
func FromBool(b bool) V3 {
	if b {
		return V1
	}
	return V0
}

// and3 is the Kleene strong conjunction.
func and3(a, b V3) V3 {
	if a == V0 || b == V0 {
		return V0
	}
	if a == VX || b == VX {
		return VX
	}
	return V1
}

// or3 is the Kleene strong disjunction.
func or3(a, b V3) V3 {
	if a == V1 || b == V1 {
		return V1
	}
	if a == VX || b == VX {
		return VX
	}
	return V0
}

// xor3 is three-valued exclusive or: X dominates.
func xor3(a, b V3) V3 {
	if a == VX || b == VX {
		return VX
	}
	return a ^ b
}

// not3 is three-valued negation.
func not3(a V3) V3 {
	switch a {
	case V0:
		return V1
	case V1:
		return V0
	}
	return VX
}

// Eval3 evaluates the gate function in the three-valued (Kleene) domain.
// Controlling values dominate X: AND with any 0 input is 0 regardless of
// X elsewhere, OR with any 1 input is 1, and so on.
func (t GateType) Eval3(inputs []V3) V3 {
	switch t {
	case Const0:
		return V0
	case Const1:
		return V1
	case Buf:
		return inputs[0]
	case Not:
		return not3(inputs[0])
	case And, Nand:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v = and3(v, in)
		}
		if t == Nand {
			v = not3(v)
		}
		return v
	case Or, Nor:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v = or3(v, in)
		}
		if t == Nor {
			v = not3(v)
		}
		return v
	case Xor, Xnor:
		v := inputs[0]
		for _, in := range inputs[1:] {
			v = xor3(v, in)
		}
		if t == Xnor {
			v = not3(v)
		}
		return v
	}
	panic("logic: Eval3 on invalid gate type")
}

// AllGateTypes returns every defined gate type, useful for exhaustive tests.
func AllGateTypes() []GateType {
	ts := make([]GateType, 0, numGateTypes)
	for t := GateType(0); t < numGateTypes; t++ {
		ts = append(ts, t)
	}
	return ts
}

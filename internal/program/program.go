// Package program is the compiled-code substrate shared by every compiled
// simulation technique in this repository.
//
// The paper's code generators emit straight-line C that a compiler turns
// into native code. The defining property measured by the paper is not the
// machine code itself but the execution model: no event queue, no tests or
// branches, one fixed operation per generated statement. This package
// reproduces that model with a flat, branch-free instruction stream over a
// dense array of machine words, executed by a tight dispatch loop —
// the threaded-code technique the paper itself cites for the tortle.c
// simulator. The companion package codegen emits the equivalent C and Go
// source text for inspection and line-count experiments.
//
// All instructions operate on logical words of configurable width W
// (8, 16, 32 or 64 bits) stored in uint64 slots; W=32 matches the paper's
// machine. Stored words are always masked to W bits.
package program

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is an instruction opcode.
type Op uint8

const (
	// OpNop does nothing.
	OpNop Op = iota

	// OpAnd: St[Dst] = St[A] & St[B].
	OpAnd
	// OpOr: St[Dst] = St[A] | St[B].
	OpOr
	// OpXor: St[Dst] = St[A] ^ St[B].
	OpXor
	// OpNand: St[Dst] = mask &^ (St[A] & St[B]).
	OpNand
	// OpNor: St[Dst] = mask &^ (St[A] | St[B]).
	OpNor
	// OpXnor: St[Dst] = mask &^ (St[A] ^ St[B]).
	OpXnor
	// OpNot: St[Dst] = mask &^ St[A].
	OpNot
	// OpMove: St[Dst] = St[A].
	OpMove
	// OpOrMove: St[Dst] |= St[A].
	OpOrMove
	// OpConst0: St[Dst] = 0.
	OpConst0
	// OpConst1: St[Dst] = mask.
	OpConst1

	// OpShlOr implements the parallel technique's delay shift (Fig. 5):
	// St[Dst] |= (St[A] << Sh) | (St[B] >> (W-Sh)), where B supplies the
	// carry bits from the next-lower word of a multi-word bit-field
	// (Fig. 8). B == None means no carry word.
	OpShlOr
	// OpShlMove is OpShlOr with assignment instead of OR-accumulation,
	// used by the shift-elimination compilers where fields are fully
	// recomputed: St[Dst] = (St[A] << Sh) | (St[B] >> (W-Sh)).
	OpShlMove
	// OpShrMove implements right shifts for aligned bit-fields:
	// St[Dst] = (St[A] >> Sh) | (St[B] << (W-Sh)), where B supplies bits
	// from the next-higher word (or a fill word). B == None means zero
	// bits shift in.
	OpShrMove

	// OpFill broadcasts bit Sh of St[A] to every bit of St[Dst]: the
	// trimming optimization's gap propagation and the right-shift
	// top-bit replication both use it.
	OpFill
	// OpBit extracts bit Sh of St[A] into bit 0 of St[Dst], clearing all
	// other bits: the unoptimized parallel technique's per-vector
	// initialization "D = (D>>k) & 1" (Fig. 6).
	OpBit
	// OpFillLowN broadcasts bit Sh of St[A] into the low B bits of
	// St[Dst], clearing the rest (B is a bit count here, not a state
	// index). The nominal-delay parallel technique initializes the d
	// previous-value bit positions of a field with it; with B == 1 it
	// degenerates to OpBit.
	OpFillLowN

	numOps
)

// None marks an absent operand.
const None int32 = -1

var opNames = [numOps]string{
	OpNop: "nop", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpNand: "nand", OpNor: "nor", OpXnor: "xnor", OpNot: "not",
	OpMove: "move", OpOrMove: "ormove", OpConst0: "const0", OpConst1: "const1",
	OpShlOr: "shlor", OpShlMove: "shlmove", OpShrMove: "shrmove",
	OpFill: "fill", OpBit: "bit", OpFillLowN: "filllown",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one straight-line instruction. Dst and A index the state array;
// B is a second operand or None; Sh is a shift amount or bit index. Sh
// sits next to Op so the instruction packs into 16 bytes.
type Instr struct {
	Op  Op
	Sh  uint8
	Dst int32
	A   int32
	B   int32
}

// Operand flags per opcode: which operands an instruction reads.
const (
	readsA   uint8 = 1 << iota // operand A is a slot
	readsB                     // operand B is a slot unless None
	readsDst                   // the instruction merges into Dst
)

// opReads is the table behind UsesA, UsesBSlot and Accumulates; the
// scheduler's per-instruction loops read it directly, once per
// instruction.
var opReads = [numOps]uint8{
	OpAnd: readsA | readsB, OpOr: readsA | readsB, OpXor: readsA | readsB,
	OpNand: readsA | readsB, OpNor: readsA | readsB, OpXnor: readsA | readsB,
	OpNot: readsA, OpMove: readsA, OpOrMove: readsA | readsDst,
	OpShlOr: readsA | readsB | readsDst, OpShlMove: readsA | readsB, OpShrMove: readsA | readsB,
	OpFill: readsA, OpBit: readsA, OpFillLowN: readsA,
}

// UsesA reports whether the instruction reads operand A (an invalid
// opcode is assumed to).
func (in *Instr) UsesA() bool { return in.Op >= numOps || opReads[in.Op]&readsA != 0 }

// UsesBSlot reports whether operand B is a state-array index that the
// instruction reads (OpFillLowN's B is a bit count, not a slot).
func (in *Instr) UsesBSlot() bool {
	return in.Op < numOps && opReads[in.Op]&readsB != 0 && in.B != None
}

// Accumulates reports whether the instruction merges into Dst rather than
// fully defining it, i.e. it reads Dst's prior value (OpOrMove, OpShlOr).
func (in *Instr) Accumulates() bool { return in.Op < numOps && opReads[in.Op]&readsDst != 0 }

// Writes reports whether the instruction writes Dst (everything but nop).
func (in *Instr) Writes() bool { return in.Op != OpNop }

// ReadSlots appends the state slots the instruction reads to buf and
// returns it: operand A, operand B when it is a slot, and Dst for
// accumulating instructions. A fold-continuation read of Dst through
// operand A or B (e.g. "dst = dst & s") is included as that operand.
func (in *Instr) ReadSlots(buf []int32) []int32 {
	if in.UsesA() {
		buf = append(buf, in.A)
	}
	if in.UsesBSlot() {
		buf = append(buf, in.B)
	}
	if in.Accumulates() {
		buf = append(buf, in.Dst)
	}
	return buf
}

// Program is a straight-line instruction sequence over NumVars state words.
type Program struct {
	// WordBits is the logical word width W (8, 16, 32 or 64).
	WordBits int
	// NumVars is the number of state words the program addresses.
	NumVars int
	// Code is the instruction stream, executed first to last with no
	// branches.
	Code []Instr
	// VarNames optionally names state words for disassembly and source
	// emission; may be nil or shorter than NumVars.
	VarNames []string
}

// Mask returns the logical word mask (W low bits set).
func (p *Program) Mask() uint64 {
	if p.WordBits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << p.WordBits) - 1
}

// Validate checks that all operand indices are in range, shift amounts are
// within the word, and the word width is supported.
func (p *Program) Validate() error {
	switch p.WordBits {
	case 8, 16, 32, 64:
	default:
		return fmt.Errorf("program: unsupported word width %d", p.WordBits)
	}
	for i, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("program: instr %d: invalid opcode %d", i, in.Op)
		}
		if in.Op == OpNop {
			continue
		}
		if in.Dst < 0 || int(in.Dst) >= p.NumVars {
			return fmt.Errorf("program: instr %d (%v): dst %d out of range", i, in.Op, in.Dst)
		}
		needsA := in.Op != OpConst0 && in.Op != OpConst1
		if needsA && (in.A < 0 || int(in.A) >= p.NumVars) {
			return fmt.Errorf("program: instr %d (%v): operand A %d out of range", i, in.Op, in.A)
		}
		if in.Op == OpFillLowN {
			// B is a bit count, not a state index.
			if in.B < 1 || int(in.B) > p.WordBits {
				return fmt.Errorf("program: instr %d (filllown): bit count %d out of range [1,%d]", i, in.B, p.WordBits)
			}
		} else if in.B != None && (in.B < 0 || int(in.B) >= p.NumVars) {
			return fmt.Errorf("program: instr %d (%v): operand B %d out of range", i, in.Op, in.B)
		}
		if int(in.Sh) >= p.WordBits {
			switch in.Op {
			case OpShlOr, OpShlMove, OpShrMove, OpFill, OpBit:
				return fmt.Errorf("program: instr %d (%v): shift %d exceeds word width %d", i, in.Op, in.Sh, p.WordBits)
			}
		}
		switch in.Op {
		case OpShlOr, OpShlMove, OpShrMove:
			if in.Sh == 0 && in.B != None {
				return fmt.Errorf("program: instr %d (%v): carry operand with zero shift", i, in.Op)
			}
		}
	}
	return nil
}

// Run executes the program over the given state, which must have at least
// NumVars words.
func (p *Program) Run(st []uint64) { Exec(p.Code, st, p.WordBits) }

// ExecRanges executes the half-open ranges code[runs[2i]:runs[2i+1]] in
// order and returns the number of instructions executed: how activity
// gating runs a slice minus its skipped segments.
func ExecRanges(code []Instr, runs []int32, st []uint64, wordBits int) int {
	n := 0
	for i := 0; i+1 < len(runs); i += 2 {
		a, b := runs[i], runs[i+1]
		Exec(code[a:b], st, wordBits)
		n += int(b - a)
	}
	return n
}

// Exec executes a straight-line instruction slice over st with the given
// logical word width. It is the shared hot loop behind Program.Run and the
// activity-gated level loop (package shard), which executes ranges of a
// program's levels. The loop is deliberately a
// single switch over a flat slice: no per-instruction allocation, no
// bounds rechecking beyond the slice accesses. Whole sim programs run
// sequentially take Sequential.Run instead, which switches once per run
// of same-opcode instructions (see Schedule).
func Exec(code []Instr, st []uint64, wordBits int) {
	mask := ^uint64(0)
	if wordBits < 64 {
		mask = (uint64(1) << wordBits) - 1
	}
	w := uint(wordBits)
	for i := range code {
		in := &code[i]
		switch in.Op {
		case OpAnd:
			st[in.Dst] = st[in.A] & st[in.B]
		case OpOr:
			st[in.Dst] = st[in.A] | st[in.B]
		case OpXor:
			st[in.Dst] = st[in.A] ^ st[in.B]
		case OpNand:
			st[in.Dst] = mask &^ (st[in.A] & st[in.B])
		case OpNor:
			st[in.Dst] = mask &^ (st[in.A] | st[in.B])
		case OpXnor:
			st[in.Dst] = mask &^ (st[in.A] ^ st[in.B])
		case OpNot:
			st[in.Dst] = mask &^ st[in.A]
		case OpMove:
			st[in.Dst] = st[in.A]
		case OpOrMove:
			st[in.Dst] |= st[in.A]
		case OpConst0:
			st[in.Dst] = 0
		case OpConst1:
			st[in.Dst] = mask
		case OpShlOr:
			v := st[in.A] << in.Sh
			if in.B != None {
				v |= st[in.B] >> (w - uint(in.Sh))
			}
			st[in.Dst] |= v & mask
		case OpShlMove:
			v := st[in.A] << in.Sh
			if in.B != None {
				v |= st[in.B] >> (w - uint(in.Sh))
			}
			st[in.Dst] = v & mask
		case OpShrMove:
			v := (st[in.A] & mask) >> in.Sh
			if in.B != None {
				v |= st[in.B] << (w - uint(in.Sh))
			}
			st[in.Dst] = v & mask
		case OpFill:
			bit := st[in.A] >> in.Sh & 1
			st[in.Dst] = (0 - bit) & mask
		case OpBit:
			st[in.Dst] = st[in.A] >> in.Sh & 1
		case OpFillLowN:
			bit := st[in.A] >> in.Sh & 1
			low := (^uint64(0)) >> (64 - uint(in.B))
			st[in.Dst] = (0 - bit) & low
		case OpNop:
		}
	}
}

// VarName returns a printable name for state word v.
func (p *Program) VarName(v int32) string {
	if v == None {
		return "-"
	}
	if int(v) < len(p.VarNames) && p.VarNames[v] != "" {
		return p.VarNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// NameBuilder builds state-word names (prefix, separator, number) as
// substrings of one string: compilers name every slot, and one allocation
// costs far less than one formatted string per name.
type NameBuilder struct {
	buf  []byte
	ends []int
}

// Add appends the next name, prefix + sep + the decimal n.
func (nb *NameBuilder) Add(prefix, sep string, n int) {
	nb.buf = append(nb.buf, prefix...)
	nb.buf = append(nb.buf, sep...)
	nb.buf = strconv.AppendInt(nb.buf, int64(n), 10)
	nb.ends = append(nb.ends, len(nb.buf))
}

// Len returns the number of names added.
func (nb *NameBuilder) Len() int { return len(nb.ends) }

// Names returns the names added, in order.
func (nb *NameBuilder) Names() []string {
	all := string(nb.buf)
	names := make([]string, len(nb.ends))
	start := 0
	for i, end := range nb.ends {
		names[i] = all[start:end]
		start = end
	}
	return names
}

// Disassemble renders the program as readable text, one instruction per
// line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; %d vars, %d instrs, W=%d\n", p.NumVars, len(p.Code), p.WordBits)
	for i, in := range p.Code {
		fmt.Fprintf(&b, "%5d  %-8s %-12s", i, in.Op, p.VarName(in.Dst))
		switch in.Op {
		case OpConst0, OpConst1, OpNop:
		case OpNot, OpMove, OpOrMove:
			fmt.Fprintf(&b, " %s", p.VarName(in.A))
		case OpFill, OpBit:
			fmt.Fprintf(&b, " %s bit=%d", p.VarName(in.A), in.Sh)
		case OpFillLowN:
			fmt.Fprintf(&b, " %s bit=%d n=%d", p.VarName(in.A), in.Sh, in.B)
		case OpShlOr, OpShlMove, OpShrMove:
			fmt.Fprintf(&b, " %s %s sh=%d", p.VarName(in.A), p.VarName(in.B), in.Sh)
		default:
			fmt.Fprintf(&b, " %s %s", p.VarName(in.A), p.VarName(in.B))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// OpCounts returns a histogram of opcodes, used by the statistics module.
func (p *Program) OpCounts() map[Op]int {
	m := make(map[Op]int)
	for _, in := range p.Code {
		m[in.Op]++
	}
	return m
}

// TouchStats sums the static state-array traffic of one execution of
// the program: words is the total operand slots touched (destination
// plus read slots per instruction, counting repeats — a measure of
// memory pressure in the spirit of the paper's word counts) and scratch
// is the subset of those references at or above scratchStart, the
// temporary-slot region. The observability layer adds these constants
// per program run instead of metering the hot loop.
func (p *Program) TouchStats(scratchStart int32) (words, scratch int64) {
	var buf []int32
	for i := range p.Code {
		in := &p.Code[i]
		if !in.Writes() {
			continue
		}
		buf = in.ReadSlots(buf[:0])
		words += int64(len(buf)) + 1
		if in.Dst >= scratchStart {
			scratch++
		}
		for _, s := range buf {
			if s >= scratchStart {
				scratch++
			}
		}
	}
	return words, scratch
}

// ShiftCount returns the number of shift instructions (the quantity
// tracked by Fig. 21 of the paper).
func (p *Program) ShiftCount() int {
	n := 0
	for _, in := range p.Code {
		switch in.Op {
		case OpShlOr, OpShlMove, OpShrMove:
			n++
		}
	}
	return n
}

// Unit tests for the dataflow engine and its two clients on tiny
// hand-built streams where the exact solution is known. The ISCAS-scale
// behaviour is covered by package verify's mutation tests; these pin the
// lattice semantics themselves.
package dataflow_test

import (
	"strings"
	"testing"

	"udsim/internal/dataflow"
	"udsim/internal/program"
)

func prog(numVars int, code ...program.Instr) *program.Program {
	return &program.Program{WordBits: 8, NumVars: numVars, Code: code}
}

func instr(op program.Op, dst, a, b int32, sh uint8) program.Instr {
	return program.Instr{Op: op, Dst: dst, A: a, B: b, Sh: sh}
}

// TestLivenessCrossVector is the back edge in miniature: LiveOut demands
// only slot 1, but Init copies slot 0 into it — so the previous vector's
// Sim write of slot 0 is live even though no LiveOut slot names it. A
// single backward pass would call that write dead; the fixpoint may not.
func TestLivenessCrossVector(t *testing.T) {
	st := &dataflow.Stream{
		Init: prog(3, instr(program.OpMove, 1, 0, program.None, 0)),
		Sim: prog(3,
			instr(program.OpConst1, 0, program.None, program.None, 0),
		),
		ScratchStart: 2,
		LiveOut:      []int32{1},
	}
	res := dataflow.Liveness(st)
	if res.NDead() != 0 {
		t.Fatalf("cross-vector live store marked dead: %+v", res)
	}
	if res.Passes < 2 {
		t.Fatalf("fixpoint converged in %d pass(es); the back edge demands at least 2", res.Passes)
	}
	if !res.LiveIn.Get(0) {
		t.Fatal("slot 0 feeds next-vector init but is not in LiveIn")
	}
	if res.LiveIn.Get(1) {
		t.Fatal("slot 1 is overwritten by init before any read; must not be in LiveIn")
	}
}

// TestLivenessDeadStore: the first of two writes to one slot with no
// read between them is dead; the second is demanded by LiveOut.
func TestLivenessDeadStore(t *testing.T) {
	st := &dataflow.Stream{
		Sim: prog(3,
			instr(program.OpConst1, 0, program.None, program.None, 0), // dead: overwritten below
			instr(program.OpConst0, 0, program.None, program.None, 0),
			instr(program.OpConst1, 2, program.None, program.None, 0), // dead: scratch, never read
		),
		ScratchStart: 2,
		LiveOut:      []int32{0},
	}
	res := dataflow.Liveness(st)
	if res.NDeadSim != 2 || !res.DeadSim[0] || res.DeadSim[1] || !res.DeadSim[2] {
		t.Fatalf("dead marks wrong: %+v", res.DeadSim)
	}
}

// TestLivenessRuntimeKill: the runtime input-write between Init and Sim
// overwrites slot 0, so an Init store into it can never be observed.
func TestLivenessRuntimeKill(t *testing.T) {
	st := &dataflow.Stream{
		Init:           prog(2, instr(program.OpConst1, 0, program.None, program.None, 0)),
		Sim:            prog(2, instr(program.OpMove, 1, 0, program.None, 0)),
		ScratchStart:   2,
		RuntimeWritten: []int32{0},
		LiveOut:        []int32{1},
	}
	res := dataflow.Liveness(st)
	if res.NDeadInit != 1 || !res.DeadInit[0] {
		t.Fatalf("init store under a runtime write not marked dead: %+v", res)
	}
}

// packingStream builds the parallel technique's accumulation idiom in
// miniature: extract single-bit payloads from an input word, open the
// destination with a fresh ShlMove, then append the next phase with a
// shifted ShlOr. sh2 picks the second payload's landing position — 1 is
// the legal discipline (above the bit already used), 0 collides.
func packingStream(sh2 uint8) *dataflow.Stream {
	return &dataflow.Stream{
		Sim: prog(5,
			instr(program.OpBit, 3, 0, program.None, 0),     // payload: bit span [0,0]
			instr(program.OpShlMove, 1, 3, program.None, 0), // opening write, dst span [0,0]
			instr(program.OpBit, 4, 0, program.None, 1),     // next payload: [0,0]
			instr(program.OpShlOr, 1, 4, program.None, sh2),
		),
		ScratchStart:   2,
		RuntimeWritten: []int32{0},
		LiveOut:        []int32{1},
	}
}

// TestIntervalsCollision: the appended payload lands on a bit position
// the destination word already uses — the accumulation must be flagged
// with both colliding spans in the witness.
func TestIntervalsCollision(t *testing.T) {
	fs := dataflow.Intervals(packingStream(0))
	if len(fs) != 1 {
		t.Fatalf("got %d findings, want 1: %+v", len(fs), fs)
	}
	f := fs[0]
	if f.Seg != dataflow.SegSim || f.Index != 3 || f.Slot != 1 {
		t.Fatalf("collision witness wrong: %+v", f)
	}
	if !f.In.Overlaps(f.Dst) {
		t.Fatalf("witness spans do not overlap: %+v", f)
	}
	if !strings.Contains(f.Msg(), "collide") {
		t.Fatalf("unexpected message: %s", f.Msg())
	}
}

// TestIntervalsDisjointPacking: the legal packing discipline — each shift
// places its payload above the bits already used — must verify silently.
func TestIntervalsDisjointPacking(t *testing.T) {
	if fs := dataflow.Intervals(packingStream(1)); len(fs) != 0 {
		t.Fatalf("disjoint packing flagged: %+v", fs)
	}
}

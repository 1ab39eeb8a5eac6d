// Package dataflow is a lattice dataflow engine for compiled simulation
// programs — the abstract-interpretation layer under verify rules
// V009 and V011 and the dead-store eliminator.
//
// The compiled techniques emit flat, branch-free instruction streams, so
// the classic worklist algorithm degenerates pleasantly: each program is a
// single basic block whose worklist order is the stream order, and the
// only back edge in the whole control-flow graph is the per-vector loop
// (Init runs over the previous vector's state, the runtime writes the
// primary inputs, Sim runs, and the surviving persistent slots feed the
// next vector's Init). Solve therefore iterates whole passes over the
// cycle, folding the fact that flows around the back edge into the
// boundary fact until it stabilizes, then replays one pass with an
// observer callback so clients can harvest per-instruction facts without
// storing a fact per program point.
//
// Clients supply the lattice: Liveness (backward bitset, drives the
// dead-store eliminator and rule V009) and Intervals (forward
// possibly-set bit ranges proving shift/mask containment, rule V011).
package dataflow

import (
	"udsim/internal/program"
)

// Direction orients an analysis along or against the execution order.
type Direction int

const (
	// Forward propagates facts in execution order.
	Forward Direction = iota
	// Backward propagates facts against execution order.
	Backward
)

// Segment identifies which part of the per-vector cycle a point is in.
type Segment int

const (
	// SegInit is the per-vector initialization program.
	SegInit Segment = iota
	// SegRuntime is the runtime's primary-input write between Init and Sim.
	SegRuntime
	// SegSim is the simulation program.
	SegSim
)

// Point is one program point of the per-vector cycle: an instruction of
// Init or Sim, or the single runtime input-write step between them.
type Point struct {
	// Seg is the cycle segment.
	Seg Segment
	// Index is the instruction index within the segment's program, or -1
	// for SegRuntime.
	Index int
	// Instr is the instruction at the point, nil for SegRuntime.
	Instr *program.Instr
}

// Stream bundles the instruction streams and boundary metadata of one
// compiled simulator — the subset of a verify.Spec the dataflow engine
// needs. The execution model per vector: Init runs over the previous
// vector's state, the runtime writes the RuntimeWritten slots, Sim runs,
// and persistent slots (below ScratchStart) carry to the next vector.
type Stream struct {
	// Init is the per-vector initialization program; may be nil.
	Init *program.Program
	// Sim is the simulation program; required.
	Sim *program.Program
	// ScratchStart is the first scratch slot; slots below it persist
	// across vectors.
	ScratchStart int32
	// RuntimeWritten lists the slots the runtime writes between Init and
	// Sim.
	RuntimeWritten []int32
	// LiveOut lists the slots that must be correct when Sim finishes.
	LiveOut []int32
}

// NumVars returns the state-array size shared by both programs.
func (st *Stream) NumVars() int { return st.Sim.NumVars }

// Persistent reports whether a slot carries state across vectors.
func (st *Stream) Persistent(slot int32) bool { return slot < st.ScratchStart }

// Problem is one lattice analysis over a Stream's per-vector cycle. The
// fact type F is typically a slice indexed by slot; Transfer may mutate
// its argument in place and must return the updated fact.
type Problem[F any] interface {
	// Direction orients the analysis.
	Direction() Direction
	// Boundary returns the fact at the analysis entry: the vector entry
	// (before Init) for forward problems, the sim exit for backward ones.
	Boundary() F
	// Clone deep-copies a fact so each pass can start from the boundary.
	Clone(f F) F
	// Transfer applies one program point to the fact.
	Transfer(pt Point, f F) F
	// Meet folds the fact that flowed around the per-vector back edge
	// into the boundary fact, reporting whether the boundary grew. The
	// engine iterates until it does not.
	Meet(boundary, wrapped F) (F, bool)
}

// maxPasses bounds the fixpoint iteration. Every client lattice here is
// finite-height (per-slot bitsets, constants, intervals), so divergence
// would be an engine bug; the cap turns it into a visible truncation
// instead of a hang.
const maxPasses = 1000

// Solve runs the analysis to fixpoint and returns the stabilized boundary
// fact plus the number of passes taken. observe, when non-nil, is called
// once per program point on a final replay pass with the fact flowing
// into the point (in the problem's direction, before Transfer applies the
// point) — O(1) fact storage regardless of program length.
func Solve[F any](st *Stream, p Problem[F], observe func(Point, F)) (F, int) {
	boundary := p.Boundary()
	passes := 0
	for passes < maxPasses {
		passes++
		wrapped := runPass(st, p, p.Clone(boundary), nil)
		var changed bool
		boundary, changed = p.Meet(boundary, wrapped)
		if !changed {
			break
		}
	}
	if observe != nil {
		runPass(st, p, p.Clone(boundary), observe)
	}
	return boundary, passes
}

// runPass pushes a fact once around the per-vector cycle in the problem's
// direction and returns the fact at the far end (the back edge's source).
func runPass[F any](st *Stream, p Problem[F], f F, observe func(Point, F)) F {
	step := func(pt Point) {
		if observe != nil {
			observe(pt, f)
		}
		f = p.Transfer(pt, f)
	}
	forward := func(seg Segment, prog *program.Program) {
		if prog == nil {
			return
		}
		for i := range prog.Code {
			step(Point{Seg: seg, Index: i, Instr: &prog.Code[i]})
		}
	}
	backward := func(seg Segment, prog *program.Program) {
		if prog == nil {
			return
		}
		for i := len(prog.Code) - 1; i >= 0; i-- {
			step(Point{Seg: seg, Index: i, Instr: &prog.Code[i]})
		}
	}
	runtime := Point{Seg: SegRuntime, Index: -1}
	if p.Direction() == Forward {
		forward(SegInit, st.Init)
		step(runtime)
		forward(SegSim, st.Sim)
	} else {
		backward(SegSim, st.Sim)
		step(runtime)
		backward(SegInit, st.Init)
	}
	return f
}

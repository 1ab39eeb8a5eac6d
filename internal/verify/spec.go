// Package verify is a static analyzer for compiled unit-delay simulation
// programs. The paper's central claim is that levelized straight-line code
// is correct by construction — no event queue, no branches — and every
// compiler in this repository (the PC-set method, the flat and trimmed
// parallel technique, the shift-eliminated layouts) independently
// re-derives word packing, bit-field layout and shift alignment. This
// package checks the emitted instruction streams themselves against the
// invariants those constructions are supposed to guarantee, so that any
// future optimizer pass (deduplication, common-subexpression elimination,
// reordering) has a checker to run against.
//
// The rule set:
//
//	V001  def-before-use: every slot read is previous-vector state, a
//	      runtime-written input, or written earlier in the stream; a read
//	      of a slot whose first update comes later in the simulation
//	      program is a stale read (levelization violation).
//	V002  single assignment: a persistent slot receives at most one fresh
//	      (non-accumulating, non-continuation) definition per program —
//	      two fresh definitions in the simulation program is a
//	      write-after-write conflict (e.g. two gates sharing a word).
//	V003  bit-field layout: packed net fields must be in range, disjoint
//	      from each other and from the scratch region.
//	V004  shift/phase consistency: under the parallel technique every
//	      word carries a static phase (the simulated time of its bit 0);
//	      shifts translate phases, gate evaluations require all operands
//	      in the same phase and advance it by one gate delay, and every
//	      write must land in the phase of its destination word.
//	V005  dead code: instructions whose result can never reach a primary
//	      output or the state carried to the next vector (reported in
//	      Stats, and as findings under Options.ReportDead).
//	V006  combinational cycles: the slot dependency graph of the
//	      simulation program must be acyclic — a backstop to levelize.
//	V007  structural validity: opcode, operand and shift ranges (wraps
//	      program.Validate), plus spec metadata consistency.
//	V009  vector-loop liveness: the fixpoint liveness over the per-vector
//	      cycle (package dataflow) must agree with the single-pass census
//	      of V005 — disagreement means LiveOut omits state the next
//	      vector's init reads, and the dead-store eliminator must not run.
//	V011  bit-interval containment: every accumulating write into a
//	      persistent word must merge bits provably disjoint from the bits
//	      the word already holds — the bit-level complement of V002.
//	V012  happens-before races: a shard plan must be well formed, and
//	      every conflicting access pair in it must be ordered by the
//	      plan's happens-before relation; violations carry complete
//	      witnesses (slot, both instruction addresses, both level/shard
//	      coordinates). (V013/V014, the resubstitution rules, live in
//	      resub.go.)
package verify

import (
	"math"

	"udsim/internal/program"
)

// NoPhase marks a slot without a static phase in Spec.Phase.
const NoPhase = math.MinInt

// Field describes one net's packed bit-field: Words consecutive state
// slots starting at Base, where bit i of word w holds the net's value at
// time Align + w*W + i, and only the first WidthBits bits of the field
// are meaningful.
type Field struct {
	Name      string
	Base      int32
	Words     int32
	Align     int
	WidthBits int
}

// Spec bundles a compiled simulator's instruction streams with the layout
// metadata the compiler used, which is what the analyzer checks them
// against. The execution model is: Init runs once per input vector over
// the previous vector's state, the runtime then writes the RuntimeWritten
// slots (primary inputs), and Sim runs to completion.
type Spec struct {
	// Name labels the technique in findings ("pcset", "parallel+trim"...).
	Name string

	// Init is the per-vector initialization program; may be nil.
	Init *program.Program
	// Sim is the simulation program; required.
	Sim *program.Program

	// ScratchStart is the first scratch slot: slots below it are
	// persistent (they carry values across vectors), slots at or above it
	// are per-gate scratch that must be written before being read. Equal
	// to NumVars when the program has no scratch region.
	ScratchStart int32

	// RuntimeWritten lists the slots the runtime writes between Init and
	// Sim (the primary-input field words or variables).
	RuntimeWritten []int32

	// LiveOut lists the slots that must hold correct values when Sim
	// finishes: primary-output slots plus any state the runtime or the
	// next vector's Init reads.
	LiveOut []int32

	// Fields optionally describes the packed bit-field layout for rule
	// V003 and the word-utilization statistics; nil for scalar layouts
	// like the PC-set method.
	Fields []Field

	// Phase optionally gives each persistent slot's static phase — the
	// simulated time of its bit 0 — indexed by slot, with NoPhase for
	// slots that have none (scratch). nil disables rule V004, which is
	// the right setting for programs whose slots are not time-packed
	// words (the PC-set method) or that use non-unit gate delays.
	Phase []int

	// Shards optionally carries a leveled schedule of Sim — the
	// activity-gated strategy's one-shard plan — enabling rule V012; nil
	// under the other strategies.
	Shards *ShardAssignment
}

// ShardAssignment is a bulk-synchronous schedule for the simulation
// program: instruction i runs in level Level[i] on shard Shard[i], levels
// are separated by barriers, and shards within a level run concurrently.
// A shard index names the same worker in every level. Rule V012 checks
// that the assignment preserves the sequential program's dataflow: every
// value read must have been produced in an earlier level or earlier by
// the same shard, and no two shards may race on a slot within a level.
type ShardAssignment struct {
	// Workers is the number of shards per level.
	Workers int
	// Levels is the number of bulk-synchronous levels.
	Levels int
	// Level and Shard give each Sim instruction's assignment, indexed by
	// instruction; both must have length len(Sim.Code).
	Level []int32
	// Shard is the per-instruction shard index in [0,Workers).
	Shard []int32
}

// numVars returns the state-array size shared by both programs.
func (s *Spec) numVars() int { return s.Sim.NumVars }

// persistent reports whether a slot carries state across vectors.
func (s *Spec) persistent(slot int32) bool { return slot < s.ScratchStart }

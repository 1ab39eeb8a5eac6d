// Package engine is the runtime both compiled techniques share. The
// PC-set method (package pcset) and the parallel technique (package
// parsim) differ only in how they compile: at run time each is an init
// program plus a straight-line simulation program, run once per input
// vector over a state arena. Core owns that runtime once — the arena,
// both programs and their sequential execution forms, stream execution,
// the guarded paths and their checkpoint, the per-net final-bit table,
// the primary-input writer, observability and dead-store elimination —
// and each technique embeds a Core, keeping only its compiler, its state
// layout and its per-vector apply (see Technique).
package engine

import (
	"context"
	"fmt"
	"time"

	"udsim/internal/circuit"
	"udsim/internal/dataflow"
	"udsim/internal/levelize"
	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/refsim"
	"udsim/internal/resilience"
	"udsim/internal/shard"
	"udsim/internal/verify"
)

// Technique is the seam between the core and the compiled technique
// embedding it. The core calls back through it for the per-vector apply
// (ApplyStream, ApplyVectorCtx and vector-batch blocks), for the reset
// that seeds a vector-batch block, for Clone and for the verification
// spec; everything else runs on the core itself.
type Technique interface {
	// core is satisfied by embedding Core.
	core() *Core
	// Apply simulates one input vector: the technique's init, WriteInputs,
	// RunSim(ctx) and activity scan. A nil ctx selects the unguarded path.
	Apply(ctx context.Context, inputs []bool) error
	// ResetConsistent settles the state on an input assignment (nil = all
	// zeros): Settle, then every field filled from the settled values.
	// Applying the next vector then reproduces, net by net and time by
	// time, what the stream that ended on that assignment would produce.
	ResetConsistent(inputs []bool) error
	// Fork returns a shallow copy of the technique with its own execution
	// state dropped — the technique's half of Clone, which then gives the
	// copy private core state. Callers use Clone.
	Fork() Technique
	// Spec returns the static-verification spec of the compiled programs.
	Spec() *verify.Spec
}

// Gating is implemented by a technique with activity gating: the
// parallel technique's shard.ActivityGated strategy. ConfigureExec
// reaches it through this interface; without it, ActivityGated is
// rejected.
type Gating interface {
	// Gate installs activity gating on the level loop e, replacing the
	// installed gating, or drops it when e is nil. It fails, leaving the
	// installed gating in place, when the compiled layout cannot be gated.
	Gate(e *shard.Engine) error
	// Invalidate makes the next gated vector run everything: the state no
	// longer follows from the previous vector.
	Invalidate()
	// SequentialForm reports whether the gate sent the vector being
	// applied to the core's sequential execution form rather than to the
	// level loop (false when ungated).
	SequentialForm() bool
	// Flatten rewrites every field whose flattening the gate deferred, so
	// that the whole state array holds what sequential execution would
	// have left. The core calls it before copying the array (Save, Clone);
	// reads of final bits need no flattening.
	Flatten()
}

// CoreOf returns the core a technique embeds.
func CoreOf(t Technique) *Core { return t.core() }

// InputField describes how one primary input lands in the state arena:
// Base is the first state word of its field, Words the field's word
// count, and Split the bit offset below which the field keeps the
// previous vector's value (shift elimination packs simulated times
// before 0 there; 0 or less writes the whole field). The native backend
// bakes the same records into its child driver.
type InputField struct {
	Base, Words, Split int32
}

// FinalBit locates a net's final value (its value at time Depth):
// bit Shift of state word Slot.
type FinalBit struct {
	Slot  int32
	Shift uint8
}

// Parts are what a technique's compiler hands the core.
type Parts struct {
	// Label names the technique ("parallel", "pcset"): the Engine of the
	// faults it raises, the observer's Shape.Engine and the error prefix.
	Label string
	// Circuit and Analysis are the normalized circuit and the analysis
	// the programs were compiled from.
	Circuit  *circuit.Circuit
	Analysis *levelize.Analysis
	// Init and Sim are the per-vector programs; slots at and above
	// ScratchStart are temporaries, everything below is persistent.
	Init, Sim    *program.Program
	ScratchStart int32
	// Inputs is indexed like Circuit.Inputs, Finals like Circuit.Nets.
	Inputs []InputField
	Finals []FinalBit
	// PrevFinalNets lists the nets whose previous final value the core
	// keeps (Core.PrevFinal): those a technique reads at times before
	// their field's alignment. Empty keeps none.
	PrevFinalNets []int32
}

// Core is the runtime of a compiled technique. It is embedded by value,
// so a technique's per-vector code reaches the arena directly.
type Core struct {
	// St is the state arena. Restore and vector-batch streams may replace
	// it, so techniques index it afresh on every vector instead of
	// keeping it.
	St []uint64
	// PrevPI holds the previous vector's primary-input values: the bits
	// WriteInputs keeps below an input's Split, and gating's input diff.
	PrevPI []bool
	// PrevFinal holds, for the nets Parts.PrevFinalNets lists, the final
	// value before the last vector (CaptureFinals). It is indexed like
	// Circuit().Nets, and nil when no net is listed.
	PrevFinal []bool
	prevNets  []int32

	label             string
	c                 *circuit.Circuit
	a                 *levelize.Analysis
	initProg, simProg *program.Program
	initSeq, seq      *program.Sequential // the programs' sequential execution forms
	scratchStart      int32
	mask              uint64
	inputs            []InputField
	final             []FinalBit
	t                 Technique
	gating            Gating            // t's gating support, nil without it
	zeroInput         []bool            // the all-zeros assignment Settle(nil) uses
	ref               *refsim.Evaluator // lazily built zero-delay oracle for Settle

	// Stream execution (ConfigureExec): the activity-gated level loop, or
	// a worker pool plus clones for vector batching; nil/Sequential by
	// default.
	exec     *shard.Engine
	pool     *shard.Pool
	clones   []*Core
	strategy shard.Strategy

	// The vector-batch stream ApplyStream splits, and the block function
	// the pool runs over it, built once so a stream allocates nothing.
	batch    [][]bool
	blockLen int
	block    func(worker int)

	// Runtime observability (SetObserver); nil = disabled, and every
	// hot-path hook is behind a nil check. Clones share the pointer, so
	// vector-batch blocks feed one set of counters.
	obs *obs.Observer

	// Guarded execution (exec.go): fault injector and level budget
	// forwarded to the level loop, consulted only on the ctx paths, and
	// the checkpoint Save and Restore share.
	inj         resilience.Injector
	levelBudget time.Duration
	ck          checkpoint
}

// Setup is the shared tail of a technique's compile: it validates both
// programs, builds their sequential execution forms, sizes the state
// arena and binds the core to t, the technique embedding it.
func (c *Core) Setup(t Technique, p Parts) error {
	if err := p.Init.Validate(); err != nil {
		return fmt.Errorf("%s: init program invalid: %w", p.Label, err)
	}
	if err := p.Sim.Validate(); err != nil {
		return fmt.Errorf("%s: sim program invalid: %w", p.Label, err)
	}
	initSeq, seq, err := schedule(p.Init, p.Sim, p.ScratchStart)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Label, err)
	}
	*c = Core{
		St:           make([]uint64, max(initSeq.NumVars(), seq.NumVars())),
		PrevPI:       make([]bool, len(p.Circuit.Inputs)),
		prevNets:     p.PrevFinalNets,
		label:        p.Label,
		c:            p.Circuit,
		a:            p.Analysis,
		initProg:     p.Init,
		simProg:      p.Sim,
		initSeq:      initSeq,
		seq:          seq,
		scratchStart: p.ScratchStart,
		mask:         p.Sim.Mask(),
		inputs:       p.Inputs,
		final:        p.Finals,
	}
	if len(p.PrevFinalNets) > 0 {
		c.PrevFinal = make([]bool, p.Circuit.NumNets())
	}
	c.bind(t)
	return nil
}

// schedule builds the sequential execution forms of an init and a sim
// program (program.Schedule, which proves each one).
func schedule(init, sim *program.Program, scratchStart int32) (initSeq, seq *program.Sequential, err error) {
	if seq, err = program.Schedule(sim, scratchStart); err != nil {
		return nil, nil, err
	}
	if initSeq, err = program.Schedule(init, scratchStart); err != nil {
		return nil, nil, fmt.Errorf("init program: %w", err)
	}
	return initSeq, seq, nil
}

func (c *Core) core() *Core { return c }

// bind points the core at the technique embedding it.
func (c *Core) bind(t Technique) {
	c.t = t
	c.gating, _ = t.(Gating)
}

// Circuit returns the (normalized) circuit being simulated.
func (c *Core) Circuit() *circuit.Circuit { return c.c }

// Analysis returns the levelization analysis the programs were compiled
// from.
func (c *Core) Analysis() *levelize.Analysis { return c.a }

// Depth returns the circuit depth in gate delays.
func (c *Core) Depth() int { return c.a.Depth }

// Programs returns the per-vector initialization and simulation programs.
func (c *Core) Programs() (init, sim *program.Program) { return c.initProg, c.simProg }

// CodeSize returns the total number of generated instructions.
func (c *Core) CodeSize() int { return len(c.initProg.Code) + len(c.simProg.Code) }

// Sequential returns the simulation program's sequential execution form:
// the code sequential execution runs (see program.Schedule).
func (c *Core) Sequential() *program.Sequential { return c.seq }

// InitSequential returns the init program's sequential execution form,
// which RunInit runs.
func (c *Core) InitSequential() *program.Sequential { return c.initSeq }

// CodeBytes returns the memory held by the compiled code: both programs
// and their sequential execution forms.
func (c *Core) CodeBytes() int64 {
	return c.initProg.Bytes() + c.simProg.Bytes() + c.initSeq.Bytes() + c.seq.Bytes()
}

// ScratchStart returns the first temporary slot: every slot below it is
// persistent state.
func (c *Core) ScratchStart() int32 { return c.scratchStart }

// Mask returns the logical word mask of the programs.
func (c *Core) Mask() uint64 { return c.mask }

// Inputs returns the primary-input field records, indexed like
// Circuit().Inputs. The slice is shared; do not modify it.
func (c *Core) Inputs() []InputField { return c.inputs }

// Final returns the final value of a net (its value at time Depth).
func (c *Core) Final(n circuit.NetID) bool {
	f := c.final[n]
	return c.St[f.Slot]>>f.Shift&1 == 1
}

// FinalSlot returns the state-word index and bit mask holding net n's
// final value — the coordinate a chaos corruption injector must hit for
// the flip to stay output-visible (a corrupted scratch or intermediate
// bit may be overwritten before anything reads it).
func (c *Core) FinalSlot(n circuit.NetID) (slot int, mask uint64) {
	f := c.final[n]
	return int(f.Slot), uint64(1) << f.Shift
}

// Settle returns the zero-delay settled value of every net for an input
// assignment (nil = all zeros) and resets the core's previous-vector
// state to it: PrevPI and PrevFinal take the settled values, and
// activity gating runs everything on the next vector. A technique's
// ResetConsistent fills its fields from the result.
func (c *Core) Settle(inputs []bool) ([]bool, error) {
	if inputs == nil {
		if c.zeroInput == nil {
			c.zeroInput = make([]bool, len(c.c.Inputs))
		}
		inputs = c.zeroInput
	}
	if c.ref == nil {
		var err error
		if c.ref, err = refsim.NewEvaluator(c.c); err != nil {
			return nil, err
		}
	}
	settled, err := c.ref.Evaluate(inputs)
	if err != nil {
		return nil, err
	}
	for i, id := range c.c.Inputs {
		c.PrevPI[i] = settled[id]
	}
	copy(c.PrevFinal, settled)
	c.invalidate()
	return settled, nil
}

// invalidate tells activity gating the state no longer follows from the
// previous vector.
func (c *Core) invalidate() {
	if c.gating != nil {
		c.gating.Invalidate()
	}
}

// flatten has activity gating rewrite the fields it left unflattened,
// before the whole state array is copied.
func (c *Core) flatten() {
	if c.gating != nil {
		c.gating.Flatten()
	}
}

// CaptureFinals records the final values of the nets Parts.PrevFinalNets
// listed in PrevFinal — called by the apply before the vector overwrites
// the fields. A no-op when none is listed.
func (c *Core) CaptureFinals() {
	for _, n := range c.prevNets {
		f := c.final[n]
		c.PrevFinal[n] = c.St[f.Slot]>>f.Shift&1 == 1
	}
}

// RunInit executes the initialization program's sequential form,
// booking it and the vector count with the observer when one is
// attached.
func (c *Core) RunInit(vectors int64) {
	if o := c.obs; o != nil {
		o.AddVectors(vectors)
		t0 := time.Now()
		c.initSeq.Run(c.St)
		o.AddInit(time.Since(t0))
		return
	}
	c.initSeq.Run(c.St)
}

// WriteInputs broadcasts a vector into the primary-input fields and
// remembers it in PrevPI. Bits of a field below its Split carry the
// previous vector's value.
func (c *Core) WriteInputs(inputs []bool) {
	mask := c.mask
	W := int(c.simProg.WordBits)
	st := c.St
	for i, f := range c.inputs {
		var newW uint64
		if inputs[i] {
			newW = mask
		}
		if f.Split <= 0 {
			for w := f.Base; w < f.Base+f.Words; w++ {
				st[w] = newW
			}
		} else {
			var prevW uint64
			if c.PrevPI[i] {
				prevW = mask
			}
			split := int(f.Split)
			for w := int32(0); w < f.Words; w++ {
				lo := int(w) * W
				switch {
				case lo+W <= split:
					st[f.Base+w] = prevW
				case lo >= split:
					st[f.Base+w] = newW
				default:
					pm := (uint64(1) << uint(split-lo)) - 1
					st[f.Base+w] = (prevW & pm) | (newW &^ pm)
				}
			}
		}
		c.PrevPI[i] = inputs[i]
	}
}

// RunSim executes the simulation program: the activity-gated level
// loop's active ranges, or else the program's sequential execution form
// — which also runs every activity-gated vector the gate sent to it
// (Gating.SequentialForm). A nil ctx selects the unguarded run;
// otherwise the run is guarded — the level loop's RunCtx, or for the
// sequential form a context check and the injector (BeginRun, then
// AtLevel(0, 0)), with the ApplyVectorCtx recover for panic isolation
// and no stall budget. With an observer attached it brackets the run
// with monotonic-clock reads; the sequential form additionally books the
// whole program as level 0 of worker 0, so the snapshot's
// cell/instruction totals stay consistent across strategies (the level
// loop books its own per-level cells).
func (c *Core) RunSim(ctx context.Context) error {
	seq := c.exec == nil || c.gating.SequentialForm()
	if ctx != nil && seq {
		if err := ctx.Err(); err != nil {
			return resilience.FromContext(c.label, err)
		}
		if inj := c.inj; inj != nil {
			inj.BeginRun()
			inj.AtLevel(0, 0, c.St)
		}
	}
	o := c.obs
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	var err error
	switch {
	case seq:
		c.seq.Run(c.St)
	case ctx == nil:
		c.exec.Run(c.St)
	default:
		err = c.exec.RunCtx(ctx, c.St)
	}
	if o != nil {
		d := time.Since(t0)
		o.AddRun(d)
		if seq {
			o.AddLevel(0, 0, d, len(c.simProg.Code))
		}
	}
	return err
}

// SetObserver attaches a runtime observer (nil detaches). Attaching
// resets the observer's counters and sizes its per-level grid for the
// current execution configuration; ConfigureExec re-attaches
// automatically when the shape changes. Clones made after the call
// share the observer, so vector-batch blocks merge into one counter
// set. Must not be called while a simulation is running.
func (c *Core) SetObserver(o *obs.Observer) {
	c.obs = o
	if c.exec != nil {
		c.exec.SetObserver(o)
	}
	for _, cl := range c.clones {
		cl.obs = o
	}
	if o == nil {
		return
	}
	shape := obs.Shape{
		Engine:     c.label,
		Steps:      c.a.Depth + 1,
		Nets:       c.c.NumNets(),
		SimInstrs:  len(c.simProg.Code),
		InitInstrs: len(c.initProg.Code),
	}
	shape.SimWords, shape.SimScratch = c.simProg.TouchStats(c.scratchStart)
	shape.InitWords, _ = c.initProg.TouchStats(c.scratchStart)
	if c.exec != nil {
		shape.Levels = c.exec.Levels()
	}
	o.Attach(shape)
}

// Observer returns the attached observer, nil when observability is
// disabled.
func (c *Core) Observer() *obs.Observer { return c.obs }

// Snapshot returns the attached observer's counters, nil without one.
func (c *Core) Snapshot() *obs.Snapshot {
	if c.obs == nil {
		return nil
	}
	return c.obs.Snapshot()
}

// EliminateDeadStores removes the instructions the vector-loop liveness
// fixpoint proves dead — stores whose results can never reach a primary
// output or monitored net, a final value, or the state the next vector's
// initialization reads — and returns how many were removed. Slot
// numbering is preserved (only the stores go, not the layout), so the
// layout, the spec and Final/Trace addressing stay valid; waveform reads
// of eliminated intermediate words of unobserved nets, however, may
// return stale bits, which is why the facade keeps this behind an
// explicit option.
//
// The optimization is self-checking: after stripping, the full static
// verifier runs over the new programs, and any finding restores the
// originals and reports an error. A configured level loop is
// re-partitioned for the stripped program; an attached observer is
// re-attached so its per-level shape tracks the new code.
func (c *Core) EliminateDeadStores() (int, error) {
	spec := c.t.Spec()
	spec.Shards = nil // the plan is rebuilt below; liveness ignores it
	res := dataflow.Liveness(verify.StreamOf(spec))
	if res.NDead() == 0 {
		return 0, nil
	}
	oldInit, oldSim, oldInitSeq, oldSeq := c.initProg, c.simProg, c.initSeq, c.seq
	c.initProg, _ = program.Strip(c.initProg, res.DeadInit)
	c.simProg, _ = program.Strip(c.simProg, res.DeadSim)

	restore := func() { c.initProg, c.simProg, c.initSeq, c.seq = oldInit, oldSim, oldInitSeq, oldSeq }
	check := c.t.Spec()
	check.Shards = nil
	if rep := verify.Check(check, verify.Options{}); !rep.Clean() {
		restore()
		return 0, fmt.Errorf("%s: dead-store elimination rejected by verifier: %w", c.label, rep.Err())
	}
	initSeq, seq, err := schedule(c.initProg, c.simProg, c.scratchStart)
	if err != nil {
		restore()
		return 0, fmt.Errorf("%s: dead-store elimination: %w", c.label, err)
	}
	// The forms rename no more scratch than before, so the state array
	// still fits.
	c.initSeq, c.seq = initSeq, seq

	// Vector-batch clones share the old programs; drop them so ApplyStream
	// rebuilds from the stripped ones.
	c.clones = nil
	switch {
	case c.exec != nil:
		// Re-partition for the stripped program.
		if _, err := c.ConfigureExec(c.strategy, 1); err != nil {
			restore()
			if _, rerr := c.ConfigureExec(c.strategy, 1); rerr != nil {
				return 0, fmt.Errorf("%s: dead-store elimination: %w (and restoring the plan failed: %v)", c.label, err, rerr)
			}
			return 0, fmt.Errorf("%s: dead-store elimination: %w", c.label, err)
		}
	case c.obs != nil:
		c.SetObserver(c.obs) // the observer's shape tracks the program size
	}
	return res.NDead(), nil
}

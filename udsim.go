// Package udsim is a unit-delay compiled logic simulation library: a
// complete implementation of the two techniques of Maurer's "Two New
// Techniques for Unit-Delay Compiled Simulation" (DAC 1990) — the PC-set
// method and the bit-parallel technique — together with the paper's
// optimizations (bit-field trimming and shift elimination by path tracing
// or cycle breaking), the interpreted event-driven baselines, zero-delay
// levelized compiled code simulation, C/Go code generation, hazard
// analysis, synthetic ISCAS-85-profile benchmark circuits, and the full
// experiment harness that regenerates every table in the paper.
//
// # Quick start
//
//	b := udsim.NewBuilder("demo")
//	a := b.Input("A")
//	n := b.Gate(udsim.Not, "N", a)
//	o := b.Gate(udsim.And, "O", a, n)
//	b.Output(o)
//	c := b.MustBuild()
//
//	sim, _ := udsim.Open(c, udsim.TechParallel)
//	sim.ResetConsistent(nil)
//	sim.Apply([]bool{true})
//	tr := sim.(udsim.Tracer)
//	for t := 0; t <= sim.Depth(); t++ {
//	    v, _ := tr.ValueAt(o, t)
//	    fmt.Println(t, v) // shows the unit-delay glitch on O
//	}
package udsim

import (
	"fmt"
	"io"

	"udsim/internal/align"
	"udsim/internal/bench85"
	"udsim/internal/circuit"
	"udsim/internal/codegen/ir"
	"udsim/internal/codegen/validate"
	"udsim/internal/engine"
	"udsim/internal/eventsim"
	"udsim/internal/gen"
	"udsim/internal/lcc"
	"udsim/internal/levelize"
	"udsim/internal/logic"
	"udsim/internal/obs"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
	"udsim/internal/shard"
	"udsim/internal/verify"
)

// Core circuit types, re-exported from the internal model.
type (
	// Circuit is an immutable combinational or synchronous-sequential
	// gate-level netlist.
	Circuit = circuit.Circuit
	// Builder constructs circuits programmatically.
	Builder = circuit.Builder
	// NetID identifies a net within a circuit.
	NetID = circuit.NetID
	// GateID identifies a gate within a circuit.
	GateID = circuit.GateID
	// GateType is a primitive gate function.
	GateType = logic.GateType
	// V3 is a three-valued logic value (0, 1, X).
	V3 = logic.V3
)

// Gate types.
const (
	Buf    = logic.Buf
	Not    = logic.Not
	And    = logic.And
	Nand   = logic.Nand
	Or     = logic.Or
	Nor    = logic.Nor
	Xor    = logic.Xor
	Xnor   = logic.Xnor
	Const0 = logic.Const0
	Const1 = logic.Const1
)

// Three-valued logic values.
const (
	V0 = logic.V0
	V1 = logic.V1
	VX = logic.VX
)

// NewBuilder starts a new circuit.
func NewBuilder(name string) *Builder { return circuit.NewBuilder(name) }

// ParseBench reads an ISCAS-85 ".bench" netlist.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench85.Parse(r, name) }

// WriteBench writes a circuit in ".bench" format.
func WriteBench(w io.Writer, c *Circuit) error { return bench85.Write(w, c) }

// ISCAS85 synthesizes the named benchmark profile circuit (c432…c7552).
func ISCAS85(name string) (*Circuit, error) { return gen.ISCAS85(name) }

// ISCAS85Names lists the available benchmark profiles in the paper's
// order.
func ISCAS85Names() []string { return gen.Names() }

// Multiplier builds an n×n array multiplier (norCells selects the
// authentic c6288-style 9-NOR full-adder cell).
func Multiplier(n int, norCells bool) *Circuit { return gen.Multiplier(n, norCells) }

// Counter builds an n-bit synchronous counter with an enable input — a
// ready-made sequential circuit for NewSequential.
func Counter(n int) *Circuit { return gen.Counter(n) }

// Engine is the interface shared by every simulation engine. All engines
// consume one input vector at a time (indexed like Circuit.Inputs) from a
// consistent starting state and expose at least the final (settled) value
// of every net.
type Engine interface {
	// EngineName identifies the technique.
	EngineName() string
	// Circuit returns the (normalized) circuit being simulated.
	Circuit() *Circuit
	// Depth returns the circuit depth in gate delays (0 for zero-delay
	// engines).
	Depth() int
	// ResetConsistent initializes all state to the zero-delay settled
	// state of the given input assignment (nil = all zeros).
	ResetConsistent(inputs []bool) error
	// Apply simulates one input vector.
	Apply(vec []bool) error
	// Final returns the settled value of a net after the last vector.
	Final(n NetID) bool
}

// Optional capability ladder
//
// Engine is deliberately minimal; everything else an engine can do is an
// optional interface discovered with a type assertion. This is the full
// ladder, in the order consumers usually probe it:
//
//	Tracer       — full unit-delay waveform of the last vector (ValueAt).
//	Closer       — owns releasable resources (worker goroutines); Close
//	               reverts to sequential execution, never invalidates.
//	Streamer     — whole-stream execution under a configured strategy
//	               (ApplyStream / ExecStrategy).
//	Cloner       — compile-once/simulate-many: Clone returns an
//	               independent engine sharing the compiled programs but
//	               owning private mutable state. The basis of the serve
//	               layer's engine pools.
//	Introspector — compiled-code size (CodeSize, CodeBytes).
//	Observable   — runtime counters: attach an Observer, and the
//	               Snapshotter half reads them back.
//	Snapshotter  — read-only counter snapshots (the scrape surface;
//	               every Observable is also a Snapshotter).
//
// Both compiled engines (*ParallelSim, *PCSetSim) implement the whole
// ladder, and *GuardedSim re-exposes every rung of the engine it wraps.
// The interpreted baselines implement only what they can honor (EventSim
// is a Tracer; the zero-delay engines are Engine only). Consumers — the
// CLIs, the harness, internal/serve — must drive engines through these
// interfaces rather than concrete types.

// Tracer is implemented by engines that retain the complete unit-delay
// waveform of the last vector.
type Tracer interface {
	// ValueAt returns the value of net n at time t (0..Depth) and
	// whether that value is observable under the engine's monitoring.
	// Every engine reports ok=false for out-of-range times (t < 0
	// belongs to the previous vector); the PC-set method additionally
	// reports ok=false before an unmonitored net's first potential
	// change (see WithMonitor).
	ValueAt(n NetID, t int) (bool, bool)
}

// Closer is implemented by engines that own releasable resources —
// today the vector-batch workers configured with WithExec.
// Closing never invalidates the engine; it reverts to sequential
// execution.
type Closer interface {
	Close()
}

// Streamer is implemented by engines that accept whole vector streams
// and execute them under a configured strategy (WithExec). Consumers
// such as the CLIs and the benchmark harness should drive engines
// through this interface rather than concrete types.
type Streamer interface {
	// ApplyStream simulates a stream of input vectors: under every
	// strategy one coherent stream, bit-identical to applying the
	// vectors one at a time, that leaves the engine on the stream's last
	// vector.
	ApplyStream(vecs [][]bool) error
	// ExecStrategy returns the resolved execution strategy
	// (ExecSequential unless WithExec was given).
	ExecStrategy() ExecStrategy
}

// Cloner is implemented by engines that can duplicate themselves
// without recompiling: the clone shares the immutable compiled programs
// and layout tables with its parent but owns a private copy of all
// mutable simulation state, so parent and clone may simulate
// concurrently (each one still single-threaded, like every engine).
// This is Maurer's compile-once/simulate-many economics as an API: one
// expensive compile amortized across many independent vector streams —
// internal/serve builds its per-program engine pools on it.
type Cloner interface {
	// Clone returns an independent engine of the same configuration.
	// The clone keeps the parent's execution strategy (re-deriving its
	// worker pool; Close it when done) and shares the parent's attached
	// Observer, so counters aggregate across the clone family.
	Clone() (Engine, error)
}

// Snapshotter is the read-only half of Observable: engines whose
// runtime counters can be read back as a consistent Snapshot. Scrape
// surfaces (the /metrics endpoint of cmd/udserve) need only this rung —
// attaching observers stays the owner's business.
type Snapshotter interface {
	// Snapshot returns a consistent copy of the attached observer's
	// counters, or nil when no observer is attached.
	Snapshot() *Snapshot
}

// Introspector is implemented by compiled engines that can report the
// size of their generated straight-line code.
type Introspector interface {
	// CodeSize returns the number of compiled instructions (init plus
	// sim program, as emitted).
	CodeSize() int
	// CodeBytes returns the memory the compiled code occupies: both
	// programs plus the sequential execution forms built from them.
	CodeBytes() int64
}

// Observable is implemented by engines that support the runtime
// observability layer: attach an Observer (or pass WithObserver to
// Open) and read aggregated counters back as a Snapshot.
type Observable interface {
	// Observe attaches an observer (nil detaches). Attaching resets the
	// observer's counters and sizes its per-level grid for
	// the engine's current execution configuration.
	Observe(o *Observer)
	// Snapshotter reads the attached observer's counters back.
	Snapshotter
}

// Runtime observability types, re-exported from the internal collector.
type (
	// Observer collects low-overhead runtime counters from a compiled
	// engine: per-level wall time and instruction counts, stream-level
	// throughput, activity-gating decisions, and (optionally) unit-delay
	// activity profiles. Enabled collection is allocation-free
	// in steady state; a nil observer costs one pointer check.
	Observer = obs.Observer
	// Snapshot is a consistent copy of an Observer's counters.
	Snapshot = obs.Snapshot
	// ObserverConfig configures NewObserver.
	ObserverConfig = obs.Config
)

// NewObserver builds a runtime observer. Attach it with WithObserver or
// Observable.Observe; it is valid for exactly one engine at a time
// (attaching resets it).
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// ShiftElimination selects the alignment algorithm for WithShiftElimination.
type ShiftElimination int

const (
	// NoShiftElimination compiles the classic zero-aligned layout.
	NoShiftElimination ShiftElimination = iota
	// PathTracing uses the Fig. 17 algorithm: right shifts only, never
	// widens bit-fields, the paper's recommended optimization.
	PathTracing
	// CycleBreaking uses the spanning-forest algorithm; it removes the
	// minimum number of edges but tends to widen bit-fields.
	CycleBreaking
)

// ExecStrategy selects how a compiled engine executes its instruction
// stream. Every strategy keeps one contract: ApplyStream is one coherent
// stream, bit-identical to sequential execution.
type ExecStrategy = shard.Strategy

const (
	// ExecSequential is the classic single-core dispatch loop.
	ExecSequential = shard.Sequential
	// ExecVectorBatch runs contiguous blocks of an ApplyStream vector
	// stream concurrently on cloned state, each block seeded with the
	// settled state of the vector before it, so the stream stays
	// coherent.
	ExecVectorBatch = shard.VectorBatch
	// ExecAuto picks ExecVectorBatch on more than one worker and
	// ExecSequential on one.
	ExecAuto = shard.Auto
	// ExecActivityGated runs the program with per-vector activity gating
	// (parallel technique, flat/trimmed layouts only): each vector's
	// primary inputs are diffed against the previous vector's, and
	// instruction ranges — whole levels included — whose input cones are
	// untouched are skipped, their fields flattened to the settled values
	// sequential execution would produce. The rest runs level by level on
	// the calling goroutine, or as the whole program's sequential form
	// when much of it is active anyway. Bit-identical to ExecSequential;
	// the first vector after a reset or restore runs everything.
	ExecActivityGated = shard.ActivityGated
	// ExecNative runs the compiled programs as genuinely straight-line
	// native code: the validated codegen output is `go build`-ed out of
	// process and driven as a supervised subprocess, with the in-process
	// engine kept as a guarded fallback (see WithNativeBackend). Open
	// intercepts this strategy and returns a *NativeSim.
	ExecNative = shard.Native
)

// ParseExecStrategy parses "sequential", "activity-gated" (alias
// "gated"), "vector-batch" (alias "batch"), "auto" or "native" (CLI
// spellings).
func ParseExecStrategy(s string) (ExecStrategy, error) { return shard.ParseStrategy(s) }

// Technique selects a simulation technique for Open.
type Technique int

const (
	// TechParallel is the bit-parallel technique (§3), optionally
	// optimized with WithTrimming and WithShiftElimination (§4).
	TechParallel Technique = iota
	// TechPCSet is the PC-set method (§2); WithMonitor selects the nets
	// whose full waveforms stay observable.
	TechPCSet
	// TechEvent3 is the interpreted event-driven baseline over {0,1,X}.
	TechEvent3
	// TechEvent2 is the interpreted event-driven baseline, two-valued.
	TechEvent2
	// TechLCC is zero-delay levelized compiled code (§5).
	TechLCC
)

// String returns the technique's canonical CLI name.
func (t Technique) String() string {
	switch t {
	case TechParallel:
		return "parallel"
	case TechPCSet:
		return "pcset"
	case TechEvent3:
		return "event3"
	case TechEvent2:
		return "event2"
	case TechLCC:
		return "lcc"
	}
	return fmt.Sprintf("technique(%d)", int(t))
}

// Option configures Open. One generic option set serves every
// technique; Open rejects options that do not apply to the selected
// technique (e.g. WithWordBits on TechPCSet) instead of silently
// ignoring them.
type Option func(*options)

type options struct {
	wordBits    int
	trim        bool
	shiftEl     ShiftElimination
	verify      bool
	cgValidate  bool
	deadStore   bool
	resub       bool
	exec        ExecStrategy
	execWorkers int
	execSet     bool
	observer    *Observer
	monitor     []NetID
	monitorSet  bool
	guard       GuardPolicy
	guardSet    bool
	inject      FaultInjector
	nat         nativeOpts
	// parallelOnly names the parallel-technique-specific options that
	// were applied, so Open can reject them for other techniques.
	parallelOnly []string
}

// compiledOnly returns the name of an applied option that requires a
// compiled technique (parallel or pcset), or "".
func (o *options) compiledOnly() string {
	switch {
	case len(o.parallelOnly) > 0:
		return o.parallelOnly[0]
	case o.monitorSet:
		return "WithMonitor"
	case o.verify:
		return "WithVerify"
	case o.cgValidate:
		return "WithCodegenValidation"
	case o.deadStore:
		return "WithDeadStoreElimination"
	case o.resub:
		return "WithResubstitution"
	case o.execSet:
		return "WithExec"
	case o.observer != nil:
		return "WithObserver"
	case o.guardSet:
		return "WithGuard"
	case o.inject != nil:
		return "WithFaultInjection"
	}
	return ""
}

// WithWordBits sets the parallel technique's logical word width (8, 16,
// 32 or 64; default 32, the paper's machine word).
func WithWordBits(w int) Option {
	return func(o *options) {
		o.wordBits = w
		o.parallelOnly = append(o.parallelOnly, "WithWordBits")
	}
}

// WithTrimming enables bit-field trimming (§4; parallel technique only).
func WithTrimming() Option {
	return func(o *options) {
		o.trim = true
		o.parallelOnly = append(o.parallelOnly, "WithTrimming")
	}
}

// WithShiftElimination enables shift elimination with the given
// alignment algorithm (§4; parallel technique only).
func WithShiftElimination(m ShiftElimination) Option {
	return func(o *options) {
		o.shiftEl = m
		o.parallelOnly = append(o.parallelOnly, "WithShiftElimination")
	}
}

// WithVerify runs the static analyzer over the compiled programs and
// fails the compile on any warning or error finding (see Verify).
func WithVerify() Option { return func(o *options) { o.verify = true } }

// WithCodegenValidation translation-validates the engine's code
// generation at build time: the final compiled programs pass the static
// verifier, and the Go source the codegen backends would emit for them
// is lifted back to an instruction stream and proven equal to them,
// statement by statement (rule V016); see ValidateCodegen. It implies
// WithVerify. Open fails on any finding. Compiled techniques only — the
// interpreted baselines and the zero-delay LCC engine have no generated
// source to validate.
func WithCodegenValidation() Option { return func(o *options) { o.cgValidate = true } }

// WithDeadStoreElimination strips the instructions the vector-loop
// liveness fixpoint (verify rule V009's analysis) proves dead after
// compilation. Settled values, output waveforms and monitored nets are
// provably unaffected, and the stripped programs are re-verified before
// being accepted; waveform reads of eliminated intermediate words of
// non-output (or unmonitored) nets, however, may return stale bits —
// hence an explicit option rather than a default.
func WithDeadStoreElimination() Option { return func(o *options) { o.deadStore = true } }

// WithExec configures stream execution: strategy selects vector-batch,
// activity-gated or automatic execution, and workers is the number of
// cores vector batching uses (<= 0 means GOMAXPROCS). Every strategy is
// bit-identical to the sequential engine; Close the engine when done to
// release the workers.
func WithExec(strategy ExecStrategy, workers int) Option {
	return func(o *options) { o.exec, o.execWorkers, o.execSet = strategy, workers, true }
}

// WithActivityGating selects the activity-gated execution strategy
// (ExecActivityGated; parallel technique, flat/trimmed layouts only):
// instruction ranges whose input cones are untouched by the
// vector-to-vector input diff are skipped. Equivalent to
// WithExec(ExecActivityGated, 0).
func WithActivityGating() Option {
	return func(o *options) {
		o.exec, o.execSet = ExecActivityGated, true
		o.parallelOnly = append(o.parallelOnly, "WithActivityGating")
	}
}

// WithObserver attaches a runtime observer (see NewObserver) during
// construction: the engine fills in its shape and resets the observer's
// counters. Equivalent to calling Observe on the built engine.
func WithObserver(ob *Observer) Option { return func(o *options) { o.observer = ob } }

// WithMonitor selects the nets whose full waveforms must stay
// observable under the PC-set method (zero-insertion, like inputs of
// the paper's PRINT pseudo-gate). Without it the primary outputs are
// monitored.
func WithMonitor(nets ...NetID) Option {
	return func(o *options) { o.monitor, o.monitorSet = nets, true }
}

// Open builds a simulation engine for the circuit with the given
// technique — the single constructor behind every CLI and harness
// entry point. Options that do not apply to the technique are an error.
// Engines built with WithExec own worker goroutines; release them via
// the Closer interface when done.
func Open(c *Circuit, technique Technique, opts ...Option) (Engine, error) {
	var o options
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	if o.nativeMode() {
		if err := o.checkNative(technique); err != nil {
			return nil, err
		}
	}
	switch technique {
	case TechParallel, TechPCSet:
		switch {
		case technique == TechParallel && o.monitorSet:
			return nil, fmt.Errorf("udsim: WithMonitor applies only to %v", TechPCSet)
		case technique == TechPCSet && len(o.parallelOnly) > 0:
			return nil, fmt.Errorf("udsim: %s applies only to %v", o.parallelOnly[0], TechParallel)
		case o.inject != nil && !o.guardSet:
			return nil, fmt.Errorf("udsim: WithFaultInjection requires WithGuard")
		}
		p, err := openCompiled(c, technique, o)
		if err != nil {
			return nil, err
		}
		if o.nativeMode() {
			return newNativeSim(p, o)
		}
		return wrapGuard(p, o), nil
	case TechEvent3, TechEvent2:
		if name := o.compiledOnly(); name != "" {
			return nil, fmt.Errorf("udsim: %s applies only to compiled techniques", name)
		}
		return NewEventDriven(c, technique == TechEvent3)
	case TechLCC:
		if name := o.compiledOnly(); name != "" {
			return nil, fmt.Errorf("udsim: %s applies only to compiled techniques", name)
		}
		return NewZeroDelay(c)
	}
	return nil, fmt.Errorf("udsim: unknown technique %v", technique)
}

// openCompiled builds a compiled engine from resolved options: the
// technique's compile step (after resubstitution, when asked), then one
// ordered list of build stages.
func openCompiled(c *Circuit, tech Technique, o options) (compiledEngine, error) {
	// The validated emission is only as sound as the programs it equals.
	o.verify = o.verify || o.cgValidate
	var rs *resubState
	if o.resub {
		st, err := buildResub(c)
		if err != nil {
			return nil, err
		}
		// Compile on the rewritten netlist; the engine keeps translating
		// the caller's original net IDs through rs. Resubstitution implies
		// WithVerify: V001-V011 re-run on the optimized compile.
		rs, c, o.verify = st, st.res.Optimized, true
		if len(o.monitor) > 0 {
			if o.monitor, err = st.translateMonitor(o.monitor); err != nil {
				return nil, err
			}
		}
	}
	sim, err := compileTechnique(c, tech, o)
	if err != nil {
		return nil, err
	}
	p := newCompiled(sim, tech, o, rs)
	core := p.core
	stages := []struct {
		on  bool
		run func() error
	}{
		{o.deadStore, func() error { _, err := core.EliminateDeadStores(); return err }},
		{o.cgValidate, func() error {
			// The final programs already passed the static verifier in this
			// Open: at compile time (WithCodegenValidation implies
			// WithVerify) and again in dead-store elimination whenever it
			// stripped anything. Only the emission is left to prove.
			rep, err := codegenReport(p, nil)
			if err != nil {
				return err
			}
			if err := rep.Err(); err != nil {
				return fmt.Errorf("udsim: codegen validation: %w", err)
			}
			return nil
		}},
		{o.execSet, func() error { _, err := core.ConfigureExec(o.exec, o.execWorkers); return err }},
		{o.observer != nil, func() error { core.SetObserver(o.observer); return nil }},
		{rs != nil, func() error {
			return resubCrossCheck(p, rs, func() (Engine, error) {
				return openCompiled(rs.res.Original, tech,
					options{wordBits: o.wordBits, trim: o.trim, shiftEl: o.shiftEl})
			})
		}},
	}
	for _, st := range stages {
		if !st.on {
			continue
		}
		if err := st.run(); err != nil {
			core.Close()
			return nil, err
		}
	}
	return p.outer(), nil
}

// compileTechnique is Open's compile step: the technique's compiler
// under the resolved options.
func compileTechnique(c *Circuit, tech Technique, o options) (technique, error) {
	if tech == TechPCSet {
		compile := pcset.Compile
		if o.verify {
			compile = pcset.CompileChecked
		}
		s, err := compile(c, o.monitor)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	cfg := parsim.Config{WordBits: o.wordBits, Trim: o.trim, Verify: o.verify}
	if o.shiftEl != NoShiftElimination {
		norm, a, err := parsim.Analyze(c)
		if err != nil {
			return nil, err
		}
		// parsim.Compile validates the alignment.
		if o.shiftEl == PathTracing {
			cfg.Align = align.PathTrace(a)
		} else {
			cfg.Align = align.CycleBreak(a)
		}
		c = norm
	}
	s, err := parsim.Compile(c, cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// technique is a compiled technique as the facade drives it: the engine
// seam plus the reset and waveform reads each technique implements.
type technique interface {
	engine.Technique
	ResetConsistent(inputs []bool) error
	Trace(n NetID, t int) (bool, bool)
}

// compiledEngine is every engine built on a compiled technique: the
// plain *ParallelSim and *PCSetSim, and the *GuardedSim and *NativeSim
// wrapping them. unwrap reaches the shared implementation underneath.
type compiledEngine interface {
	Engine
	Tracer
	Closer
	Streamer
	Introspector
	Observable
	unwrap() *compiled
}

// compiled is the one implementation of both compiled engines: the
// technique, its runtime core, the options it was opened with and the
// resubstitution remap. *ParallelSim and *PCSetSim embed it and add
// only their technique's extras.
type compiled struct {
	core *engine.Core
	sim  technique
	kind Technique
	opts options
	rs   *resubState // non-nil iff built with WithResubstitution
}

func newCompiled(sim technique, kind Technique, o options, rs *resubState) *compiled {
	return &compiled{core: engine.CoreOf(sim), sim: sim, kind: kind, opts: o, rs: rs}
}

// outer returns the exported engine type of p's technique.
func (p *compiled) outer() compiledEngine {
	if s, ok := p.sim.(*parsim.Sim); ok {
		return &ParallelSim{compiled: p, s: s}
	}
	return &PCSetSim{compiled: p, s: p.sim.(*pcset.Sim)}
}

func (p *compiled) unwrap() *compiled { return p }

// EngineName identifies the configuration.
func (p *compiled) EngineName() string {
	n := p.kind.String()
	if p.opts.trim {
		n += "+trim"
	}
	switch p.opts.shiftEl {
	case PathTracing:
		n += "+path-tracing"
	case CycleBreaking:
		n += "+cycle-breaking"
	}
	if p.rs != nil {
		n += "+resub"
	}
	return n
}

// Circuit returns the (normalized) circuit — under WithResubstitution
// the original one, whose IDs every accessor speaks.
func (p *compiled) Circuit() *Circuit {
	if p.rs != nil {
		return p.rs.res.Original
	}
	return p.core.Circuit()
}

// Resub returns the resubstitution result the engine was built on, nil
// without WithResubstitution.
func (p *compiled) Resub() *ResubResult {
	if p.rs == nil {
		return nil
	}
	return p.rs.res
}

// Depth returns the circuit depth in gate delays.
func (p *compiled) Depth() int { return p.core.Depth() }

// ResetConsistent initializes the state (nil = all-zeros assignment).
func (p *compiled) ResetConsistent(inputs []bool) error { return p.sim.ResetConsistent(inputs) }

// Apply simulates one input vector.
func (p *compiled) Apply(vec []bool) error { return p.sim.Apply(nil, vec) }

// ApplyStream simulates a stream of input vectors under the configured
// execution strategy (see WithExec): one coherent stream, bit-identical
// to sequential execution, ending on the stream's last vector.
func (p *compiled) ApplyStream(vecs [][]bool) error { return p.core.ApplyStream(vecs) }

// ExecStrategy returns the resolved execution strategy (ExecSequential
// unless WithExec was given).
func (p *compiled) ExecStrategy() ExecStrategy { return p.core.ExecStrategy() }

// Close releases any vector-batch workers; the simulator remains usable
// sequentially. A no-op for sequential engines.
func (p *compiled) Close() { p.core.Close() }

// Clone returns an independent engine sharing the compiled programs and
// layout (no recompilation) but owning a private copy of all mutable
// state, configured for the parent's execution strategy. The clone
// shares the parent's attached Observer — counters aggregate across the
// clone family, and cloning an engine whose strategy owns workers
// re-attaches that observer, starting a new observation window — so
// build the whole family (an engine pool) before accumulating counters.
// Close the clone when done to release its workers.
func (p *compiled) Clone() (Engine, error) { return p.clone() }

func (p *compiled) clone() (compiledEngine, error) {
	cl := newCompiled(p.core.Clone().(technique), p.kind, p.opts, p.rs)
	if p.opts.execSet {
		if _, err := cl.core.ConfigureExec(p.opts.exec, p.opts.execWorkers); err != nil {
			return nil, err
		}
	}
	return cl.outer(), nil
}

// Final returns the settled value of a net. Under WithResubstitution a
// merged net reads its surviving representative, a constant net its
// proven value, and a stripped net false.
func (p *compiled) Final(n NetID) bool {
	if p.rs != nil {
		return p.rs.final(p.core.Final, n)
	}
	return p.core.Final(n)
}

// ValueAt returns the value of net n at time t, with ok=false for
// negative times (they belong to the previous vector) and — under the
// PC-set method — before an unmonitored net's first potential change;
// the parallel technique retains every waveform. Under
// WithResubstitution merged nets resolve to the surviving
// representative's waveform and stripped nets are unobservable.
func (p *compiled) ValueAt(n NetID, t int) (bool, bool) {
	if p.rs != nil {
		return p.rs.valueAt(p.sim.Trace, p.core.Depth(), n, t)
	}
	return p.sim.Trace(n, t)
}

// Observe attaches a runtime observer (nil detaches); see NewObserver.
func (p *compiled) Observe(o *Observer) { p.core.SetObserver(o) }

// Snapshot returns the attached observer's counters, nil without one.
func (p *compiled) Snapshot() *Snapshot { return p.core.Snapshot() }

// CodeSize returns the number of compiled straight-line instructions.
func (p *compiled) CodeSize() int { return p.core.CodeSize() }

// CodeBytes returns the memory held by the compiled code.
func (p *compiled) CodeBytes() int64 { return p.core.CodeBytes() }

// EliminateDeadStores strips the provably-dead instructions (see
// WithDeadStoreElimination) and returns how many were removed.
func (p *compiled) EliminateDeadStores() (int, error) { return p.core.EliminateDeadStores() }

// ParallelSim is a compiled parallel-technique simulator. Besides the
// surface every compiled engine shares, it reports its bit-field shape
// and returns whole waveforms.
type ParallelSim struct {
	*compiled
	s *parsim.Sim
}

// History returns net n's full waveform for the last vector. Under
// WithResubstitution a merged net returns the representative's waveform
// (inverted back for complemented merges), a constant net a flat
// waveform, and a stripped net nil.
func (p *ParallelSim) History(n NetID) []bool {
	if p.rs == nil {
		return p.s.History(n)
	}
	if int(n) >= len(p.rs.ok) || !p.rs.ok[n] {
		return nil
	}
	h := make([]bool, p.Depth()+1)
	for t := range h {
		h[t], _ = p.ValueAt(n, t)
	}
	return h
}

// WordsPerField returns the widest bit-field in machine words.
func (p *ParallelSim) WordsPerField() int { return p.s.WordsPerField() }

// ShiftCount returns the number of shift instructions in the compiled
// simulation code.
func (p *ParallelSim) ShiftCount() int { return p.s.ShiftCount() }

// PCSetSim is a compiled PC-set method simulator. Besides the surface
// every compiled engine shares, it runs 64 independent vector streams at
// once in its bit lanes.
type PCSetSim struct {
	*compiled
	s *pcset.Sim
}

// ApplyLanes simulates 64 independent vector streams at once (§3's
// data-parallel mode); packed is the layout of vectors.Set.Packed.
func (p *PCSetSim) ApplyLanes(packed []uint64) error { return p.s.ApplyLanes(packed) }

// LaneValueAt is ValueAt for one of the 64 data-parallel lanes.
func (p *PCSetSim) LaneValueAt(n NetID, t, lane int) (bool, bool) {
	if p.rs != nil {
		return p.rs.valueAt(func(x NetID, tt int) (bool, bool) {
			return p.s.LaneValueAt(x, tt, lane)
		}, p.s.Depth(), n, t)
	}
	return p.s.LaneValueAt(n, t, lane)
}

// NumVars returns the number of generated variables.
func (p *PCSetSim) NumVars() int { return p.s.NumVars() }

// NewEventDriven builds the interpreted event-driven unit-delay baseline.
// threeValued selects the {0,1,X} model; otherwise two-valued.
func NewEventDriven(c *Circuit, threeValued bool) (*EventSim, error) {
	m := eventsim.TwoValued
	if threeValued {
		m = eventsim.ThreeValued
	}
	s, err := eventsim.New(c, m)
	if err != nil {
		return nil, err
	}
	return &EventSim{s: s}, nil
}

// EventSim is the interpreted event-driven baseline simulator.
type EventSim struct {
	s    *eventsim.Sim
	hist [][]logic.V3
}

// EngineName identifies the technique and logic model.
func (e *EventSim) EngineName() string {
	if e.s.Model() == eventsim.ThreeValued {
		return "event-driven-3v"
	}
	return "event-driven-2v"
}

// Circuit returns the (normalized) circuit.
func (e *EventSim) Circuit() *Circuit { return e.s.Circuit() }

// Depth returns the circuit depth in gate delays.
func (e *EventSim) Depth() int { return e.s.Depth() }

// ResetConsistent initializes every net to the settled state.
func (e *EventSim) ResetConsistent(inputs []bool) error {
	e.hist = nil
	return e.s.ResetConsistent(inputs)
}

// Apply simulates one input vector, retaining the waveform for ValueAt.
func (e *EventSim) Apply(vec []bool) error {
	h, err := e.s.ApplyVectorTrace(vec)
	if err != nil {
		return err
	}
	e.hist = h
	return nil
}

// ApplyFast simulates one input vector without recording the waveform —
// the mode used for benchmarking.
func (e *EventSim) ApplyFast(vec []bool) error {
	e.hist = nil
	_, err := e.s.ApplyVector(vec)
	return err
}

// Final returns the settled two-valued value of a net (X reads as false).
func (e *EventSim) Final(n NetID) bool { return e.s.Value(n) == logic.V1 }

// Value3 returns the current three-valued value of a net.
func (e *EventSim) Value3(n NetID) V3 { return e.s.Value(n) }

// ValueAt returns net n's value at time t from the last traced vector.
func (e *EventSim) ValueAt(n NetID, t int) (bool, bool) {
	if e.hist == nil || t < 0 || t >= len(e.hist) {
		return false, false
	}
	return e.hist[t][n] == logic.V1, true
}

// Evals returns the number of gate evaluations performed so far.
func (e *EventSim) Evals() int64 { return e.s.Evals }

// Events returns the number of net value changes so far.
func (e *EventSim) Events() int64 { return e.s.Events }

// NewZeroDelay compiles a circuit as a classic zero-delay LCC simulator.
func NewZeroDelay(c *Circuit) (*ZeroDelaySim, error) {
	s, err := lcc.Compile(c)
	if err != nil {
		return nil, err
	}
	return &ZeroDelaySim{s: s}, nil
}

// ZeroDelaySim is a compiled zero-delay (LCC) simulator.
type ZeroDelaySim struct{ s *lcc.Sim }

// EngineName identifies the technique.
func (z *ZeroDelaySim) EngineName() string { return "lcc-zero-delay" }

// Circuit returns the (normalized) circuit.
func (z *ZeroDelaySim) Circuit() *Circuit { return z.s.Circuit() }

// Depth returns 0: zero-delay simulation has no time axis.
func (z *ZeroDelaySim) Depth() int { return 0 }

// ResetConsistent initializes the state (a formality for zero delay).
func (z *ZeroDelaySim) ResetConsistent(inputs []bool) error { return z.s.ResetConsistent(inputs) }

// Apply computes the steady state of one input vector.
func (z *ZeroDelaySim) Apply(vec []bool) error { return z.s.ApplyVector(vec) }

// Final returns the steady-state value of a net.
func (z *ZeroDelaySim) Final(n NetID) bool { return z.s.Value(n) }

// NewZeroDelayInterpreted builds the interpreted levelized zero-delay
// simulator — the slow half of the paper's §5 zero-delay side study
// (compiled LCC is the fast half).
func NewZeroDelayInterpreted(c *Circuit) (*ZeroDelayInterp, error) {
	s, err := eventsim.NewZeroDelay(c)
	if err != nil {
		return nil, err
	}
	return &ZeroDelayInterp{s: s}, nil
}

// ZeroDelayInterp is the interpreted zero-delay simulator.
type ZeroDelayInterp struct{ s *eventsim.ZeroDelaySim }

// Circuit returns the (normalized) circuit.
func (z *ZeroDelayInterp) Circuit() *Circuit { return z.s.Circuit() }

// ApplyVector computes the steady state of one input vector.
func (z *ZeroDelayInterp) ApplyVector(vec []bool) error { return z.s.ApplyVector(vec) }

// Value returns the current three-valued value of a net.
func (z *ZeroDelayInterp) Value(n NetID) V3 { return z.s.Value(n) }

// Static interface checks.
var (
	_ compiledEngine = (*ParallelSim)(nil)
	_ compiledEngine = (*PCSetSim)(nil)
	_ Cloner         = (*ParallelSim)(nil)
	_ Cloner         = (*PCSetSim)(nil)
	_ Engine         = (*EventSim)(nil)
	_ Engine         = (*ZeroDelaySim)(nil)
	_ Tracer         = (*EventSim)(nil)
)

// Levelize exposes the level / minlevel / PC-set analysis of §§1–2 for a
// combinational circuit.
func Levelize(c *Circuit) (*levelize.Analysis, error) { return levelize.Analyze(c.Normalize()) }

// Programs gives access to an engine's compiled instruction streams when
// it has them (for disassembly or source generation).
func Programs(e Engine) (init, sim *program.Program, ok bool) {
	if ce, ok := e.(compiledEngine); ok {
		init, sim = ce.unwrap().core.Programs()
		return init, sim, true
	}
	if z, ok := e.(*ZeroDelaySim); ok {
		return &program.Program{WordBits: 64}, z.s.Program(), true
	}
	return nil, nil, false
}

// Static-verification types, re-exported from the internal analyzer.
type (
	// VerifyReport is the structured result of a static-analysis run.
	VerifyReport = verify.Report
	// VerifyFinding is one diagnostic (rule ID, severity, location).
	VerifyFinding = verify.Finding
	// VerifyOptions configures a verification run.
	VerifyOptions = verify.Options
)

// Verify runs the static analyzer over an engine's compiled programs:
// def-before-use, single assignment, bit-field layout, shift/phase
// consistency, dead code, combinational-cycle and structural checks
// (rules V001–V007) and the dataflow rules — vector-loop liveness
// agreement and bit-interval containment (V009, V011). The report does
// not depend on the execution strategy: an activity-gated plan runs each
// level in program order, so it has nothing to race.
// Engines without compiled instruction streams (the interpreted baselines
// and the zero-delay LCC engine, whose program has no unit-delay layout
// metadata) return an error.
func Verify(e Engine, opts VerifyOptions) (*VerifyReport, error) {
	if ce, ok := e.(compiledEngine); ok {
		return verify.Check(ce.unwrap().sim.Spec(), opts), nil
	}
	return nil, fmt.Errorf("udsim: engine %s has no statically verifiable programs", e.EngineName())
}

// ValidateCodegen runs the translation validator on demand over an
// engine's compiled programs. The static verifier runs over them first
// (rules V001–V011, as Verify); a program with any warning or error
// finding is rejected with that report. The Go source the codegen
// backends would emit is then lifted back to an instruction stream and
// proven equal to the programs, statement by statement and in order
// (V016); the C rendering comes from the same statement IR. Engines
// without compiled instruction streams return an error.
func ValidateCodegen(e Engine) (*VerifyReport, error) {
	ce, ok := e.(compiledEngine)
	if !ok {
		return nil, fmt.Errorf("udsim: engine %s has no generated source to validate", e.EngineName())
	}
	p := ce.unwrap()
	return codegenReport(p, p.sim.Spec())
}

// codegenReport validates the emission of an engine's current programs
// (after any dead-store elimination), after verifying them against spec
// unless spec is nil.
func codegenReport(p *compiled, spec *verify.Spec) (*VerifyReport, error) {
	init, sim := p.core.Programs()
	res, err := validate.CheckUnits("gensim",
		[]ir.Source{{Name: "initvec", Prog: init}, {Name: "simvec", Prog: sim}}, spec)
	if err != nil {
		return nil, fmt.Errorf("udsim: codegen validation: %w", err)
	}
	return res.Report, nil
}

// ParseTechnique maps a CLI technique name — "event3", "event2",
// "pcset", "parallel", "parallel-trim", "parallel-pt",
// "parallel-pt-trim", "parallel-cb", "parallel-cb-trim", "lcc" — to the
// Technique plus the Options the name implies, ready to pass to Open
// (possibly with further options appended).
func ParseTechnique(name string) (Technique, []Option, error) {
	switch name {
	case "event3":
		return TechEvent3, nil, nil
	case "event2":
		return TechEvent2, nil, nil
	case "pcset":
		return TechPCSet, nil, nil
	case "parallel":
		return TechParallel, nil, nil
	case "parallel-trim":
		return TechParallel, []Option{WithTrimming()}, nil
	case "parallel-pt":
		return TechParallel, []Option{WithShiftElimination(PathTracing)}, nil
	case "parallel-pt-trim":
		return TechParallel, []Option{WithShiftElimination(PathTracing), WithTrimming()}, nil
	case "parallel-cb":
		return TechParallel, []Option{WithShiftElimination(CycleBreaking)}, nil
	case "parallel-cb-trim":
		return TechParallel, []Option{WithShiftElimination(CycleBreaking), WithTrimming()}, nil
	case "lcc":
		return TechLCC, nil, nil
	}
	return 0, nil, fmt.Errorf("udsim: unknown technique %q", name)
}

// NewEngine builds an engine by technique name (see ParseTechnique).
// Used by the CLI tools; equivalent to ParseTechnique followed by Open.
func NewEngine(technique string, c *Circuit) (Engine, error) {
	t, opts, err := ParseTechnique(technique)
	if err != nil {
		return nil, err
	}
	return Open(c, t, opts...)
}

// Techniques lists the names accepted by NewEngine.
func Techniques() []string {
	return []string{"event3", "event2", "pcset", "parallel", "parallel-trim",
		"parallel-pt", "parallel-pt-trim", "parallel-cb", "parallel-cb-trim", "lcc"}
}

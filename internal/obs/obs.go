// Package obs is the runtime observability layer shared by every
// simulation engine in this repository.
//
// The paper argues for compiled unit-delay simulation by measuring —
// instruction counts, word counts, shift counts, activity per circuit —
// and this package extends that discipline to the runtime: where the
// cycles go (per level), how much state traffic a vector stream
// generates, what activity gating skipped, and how much unit-delay
// switching activity the circuit exhibits per time step.
//
// The design constraints, in order:
//
//  1. Disabled is free. Engines hold a *Observer that is nil by default;
//     every hot-path hook is guarded by one nil check.
//  2. Enabled is sampling-free and allocation-free in steady state. All
//     counters are plain atomic adds into arrays sized once at Attach;
//     wall-clock time comes from time.Now() (no timer goroutines, no
//     channels); nothing in the Add* family allocates, so engines keep
//     their 0 allocs/op ApplyStream guarantee with an observer on.
//  3. Reading is cheap but not free. Snapshot() allocates a coherent
//     copy; it is meant for the end (or quiet moments) of a run.
//
// Layout: the cell grid holds one cell per level of the executing plan.
package obs

import (
	"expvar"
	"sync/atomic"
	"time"

	"udsim/internal/resilience"
)

// Config selects the optional collections of an Observer. The zero value
// collects timing and traffic counters only.
type Config struct {
	// Activity enables unit-delay activity profiling: nets changing per
	// time step and per-net toggle/glitch counts. The engine scans every
	// net's waveform after each vector, so it costs O(nets × depth) per
	// vector — cheap next to simulation, but not free like the counters.
	Activity bool
}

// Shape describes the engine attaching to an Observer: the static
// quantities the counters are normalized against. Engines fill it in
// SetObserver; Attach sizes the counter arrays from it and resets every
// counter.
type Shape struct {
	// Engine is the attaching engine's name (e.g. "parallel", "pcset").
	Engine string
	// Levels is the number of levels the simulation program executes in:
	// the activity-gated plan's levels, or 1 for sequential execution
	// (the whole program is one level).
	Levels int
	// Steps is the number of unit-delay time steps per vector
	// (circuit depth + 1); used only when Config.Activity is set.
	Steps int
	// Nets is the number of circuit nets; used only for activity.
	Nets int
	// SimInstrs and InitInstrs are the instruction counts of the
	// simulation and per-vector initialization programs.
	SimInstrs, InitInstrs int
	// SimWords and InitWords are the state-array words touched by one
	// execution of the respective program (destination plus read slots
	// per instruction); SimScratch is the subset of the simulation
	// program's operand references that hit the scratch region. All
	// three are static program properties, so per-run traffic is
	// accumulated by adding these constants — no per-instruction
	// metering in the hot loop.
	SimWords, InitWords, SimScratch int64
}

// cell accumulates one level's execution time and instruction count.
type cell struct {
	nanos  atomic.Int64
	instrs atomic.Int64
}

// The executors an activity-gated vector can run on, indexing
// Snapshot.GatedVectors and named by GatedExecutors.
const (
	// GatedSequential is the core's sequential execution form, run in
	// full: a vector after an invalidation, or one activating most of the
	// program.
	GatedSequential = iota
	// GatedCaller is the level loop over the active ranges on the
	// caller.
	GatedCaller
	// NumGatedExecutors is the number of gated executors.
	NumGatedExecutors
)

// GatedExecutors names the gated executors, the executor label of
// udsim_gating_vectors_total.
var GatedExecutors = [NumGatedExecutors]string{"sequential", "caller"}

// Observer collects runtime counters for one engine. All Add* methods
// are safe for concurrent use (vector-batch clones) and
// never allocate; Attach and Snapshot are not safe to call concurrently
// with a running simulation.
//
// A nil *Observer is the disabled state: engines must guard their hooks
// with a nil check, which is the entire disabled-path overhead.
type Observer struct {
	cfg   Config
	shape Shape
	start time.Time

	vectors   atomic.Int64
	runs      atomic.Int64 // simulation-program executions
	runNanos  atomic.Int64 // wall time inside those executions
	initRuns  atomic.Int64 // initialization-program executions
	initNanos atomic.Int64

	cells []cell // one per level

	// Activity gating (the ActivityGated strategy): gate segments skipped
	// because their input cone was untouched, and the bookkeeping time
	// the gating decision itself cost.
	shardsSkipped atomic.Int64
	gatingNanos   atomic.Int64
	gated         [NumGatedExecutors]atomic.Int64 // gated vectors per executor

	// Activity (nil unless Config.Activity): transitions per time step,
	// and per-net toggle/glitch totals across observed vectors.
	steps       []atomic.Int64
	netToggles  []atomic.Int64
	netGlitches []atomic.Int64
	actVectors  atomic.Int64

	// Guard counters (see guard.go): resilience events recorded by the
	// guarded engine. Unlike every other counter these survive Attach —
	// quarantining an execution strategy reconfigures the engine, and the
	// fault record must outlive the reconfiguration it caused.
	guardFaults      [resilience.NumFaultKinds]atomic.Int64
	guardRetries     atomic.Int64
	guardQuarantines atomic.Int64
	guardReplays     atomic.Int64
	guardChecks      atomic.Int64
	guardMismatches  atomic.Int64

	// Native-backend counters (see native.go): child builds, respawns,
	// protocol errors, in-process fallbacks and frame traffic recorded by
	// the subprocess supervisor. Like the guard counters they survive
	// Attach — a respawn or quarantine reconfigures the engine, and the
	// record must outlive the reconfiguration it caused.
	nativeBuilds     atomic.Int64
	nativeBuildNanos atomic.Int64
	nativeRespawns   atomic.Int64
	nativeProtoErrs  atomic.Int64
	nativeFallbacks  atomic.Int64
	nativeFramesOut  atomic.Int64
	nativeFramesIn   atomic.Int64
}

// New creates a detached Observer. It collects nothing until an engine
// attaches it (see the facade's WithObserver option).
func New(cfg Config) *Observer { return &Observer{cfg: cfg} }

// Config returns the observer's configuration.
func (o *Observer) Config() Config { return o.cfg }

// ActivityEnabled reports whether the attaching engine should run its
// per-vector activity scan. Safe on a nil receiver.
func (o *Observer) ActivityEnabled() bool { return o != nil && o.cfg.Activity }

// Shape returns the shape of the last Attach.
func (o *Observer) Shape() Shape { return o.shape }

// Attach (re)sizes the counter arrays for an engine's shape and resets
// every counter — attaching is the observation epoch boundary. Engines
// call it from SetObserver and again when reconfiguring execution
// (ConfigureExec changes Levels). Must not race a running simulation.
func (o *Observer) Attach(s Shape) {
	if s.Levels < 1 {
		s.Levels = 1
	}
	o.shape = s
	o.cells = make([]cell, s.Levels)
	o.steps, o.netToggles, o.netGlitches = nil, nil, nil
	if o.cfg.Activity {
		o.steps = make([]atomic.Int64, s.Steps)
		o.netToggles = make([]atomic.Int64, s.Nets)
		o.netGlitches = make([]atomic.Int64, s.Nets)
	}
	o.vectors.Store(0)
	o.runs.Store(0)
	o.runNanos.Store(0)
	o.initRuns.Store(0)
	o.initNanos.Store(0)
	o.actVectors.Store(0)
	o.shardsSkipped.Store(0)
	o.gatingNanos.Store(0)
	for i := range o.gated {
		o.gated[i].Store(0)
	}
	o.start = time.Now()
}

// AddVectors counts n applied input vectors (64 for a packed-lane apply).
func (o *Observer) AddVectors(n int64) { o.vectors.Add(n) }

// AddRun counts one execution of the simulation program taking d of wall
// time; the static word/scratch traffic of the shape is implied.
func (o *Observer) AddRun(d time.Duration) {
	o.runs.Add(1)
	o.runNanos.Add(int64(d))
}

// AddInit counts one execution of the initialization program.
func (o *Observer) AddInit(d time.Duration) {
	o.initRuns.Add(1)
	o.initNanos.Add(int64(d))
}

// AddLevel records one execution of a level: d of busy time over
// instrs instructions. Bounds are the attaching engine's contract.
func (o *Observer) AddLevel(level int, d time.Duration, instrs int) {
	c := &o.cells[level]
	c.nanos.Add(int64(d))
	c.instrs.Add(int64(instrs))
}

// AddShardsSkipped counts n gate segments skipped by activity gating in
// one run.
func (o *Observer) AddShardsSkipped(n int64) { o.shardsSkipped.Add(n) }

// AddGatingNanos records the bookkeeping cost of one gating decision:
// diffing the primary inputs and deriving the skip sets.
func (o *Observer) AddGatingNanos(d time.Duration) { o.gatingNanos.Add(int64(d)) }

// AddGatedVector counts one activity-gated vector run on executor
// (GatedSequential or GatedCaller).
func (o *Observer) AddGatedVector(executor int) { o.gated[executor].Add(1) }

// AddTransition counts one net changing value at time step t.
func (o *Observer) AddTransition(t int) { o.steps[t].Add(1) }

// AddNetToggles folds one vector's transition count for a net into the
// per-net totals: toggles beyond the first are glitch transitions.
func (o *Observer) AddNetToggles(net int, toggles int64) {
	o.netToggles[net].Add(toggles)
	if toggles > 1 {
		o.netGlitches[net].Add(toggles - 1)
	}
}

// AddActivityVector counts one vector whose activity was scanned.
func (o *Observer) AddActivityVector() { o.actVectors.Add(1) }

// Expvar adapts the observer to the expvar interface: the returned Var
// renders a fresh Snapshot as JSON on every read, so
// expvar.Publish("udsim", o.Expvar()) exposes live counters over the
// standard /debug/vars endpoint.
func (o *Observer) Expvar() expvar.Var {
	return expvar.Func(func() any { return o.Snapshot() })
}

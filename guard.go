package udsim

import (
	"context"
	"time"

	"udsim/internal/engine"
	"udsim/internal/refsim"
	"udsim/internal/resilience"
)

// Guarded execution: Open(c, tech, WithGuard(policy)) wraps a compiled
// engine in a supervisor that turns panics, level stalls, caller
// cancellations and silently corrupted outputs into typed *EngineFault
// values and — where possible — recovers by degrading gracefully instead
// of surfacing them at all. The degradation ladder, applied per vector
// batch (one ApplyStream/ApplyStreamCtx call, or a single Apply):
//
//  1. The batch starts from a checkpoint of the engine's mutable state.
//  2. On the first fault the configured execution strategy is
//     quarantined — the engine reverts to sequential — the batch is
//     rolled back to the checkpoint and replayed on the sequential path.
//     Outputs stay bit-identical to an all-sequential run.
//  3. A transient fault on the sequential path is retried with capped
//     exponential backoff, up to GuardPolicy.MaxRetries rollbacks.
//  4. Cancellations and persistent faults are rolled back and returned.
//
// Every fault, retry, quarantine, replayed vector and oracle cross-check
// is recorded on the attached Observer and exported by WriteText as the
// udsim_guard_* counter families.

// Resilience types, re-exported from the internal supervision layer.
type (
	// EngineFault is a typed, located engine failure: fault kind plus
	// level and instruction witness coordinates.
	EngineFault = resilience.EngineFault
	// FaultKind classifies an EngineFault.
	FaultKind = resilience.FaultKind
	// GuardPolicy tunes the guarded engine's supervision knobs.
	GuardPolicy = resilience.Policy
	// FaultInjector is the chaos seam consulted by guarded paths only;
	// see internal/resilience/chaos for deterministic implementations.
	FaultInjector = resilience.Injector
)

// Fault kinds, re-exported.
const (
	// FaultPanic is a recovered worker or dispatch-loop panic.
	FaultPanic = resilience.FaultPanic
	// FaultDeadline is a level that ran past the guard's level budget or
	// an expired context deadline.
	FaultDeadline = resilience.FaultDeadline
	// FaultCanceled is a caller cancellation.
	FaultCanceled = resilience.FaultCanceled
	// FaultCorruption is a cross-check mismatch against the zero-delay
	// oracle.
	FaultCorruption = resilience.FaultCorruption
	// FaultSubprocess is a native-backend child failure: crash, kill,
	// failed build or unexpected EOF (see WithNativeBackend).
	FaultSubprocess = resilience.FaultSubprocess
	// FaultProtocol is a native-backend wire-protocol violation:
	// CRC mismatch, truncated or desynced frame, bad handshake.
	FaultProtocol = resilience.FaultProtocol
)

// AsEngineFault extracts an *EngineFault from an error chain.
func AsEngineFault(err error) (*EngineFault, bool) { return resilience.AsFault(err) }

// DefaultGuardPolicy is the conservative default supervision
// configuration: one-second level budget, two retries with millisecond
// backoff, no output sampling.
func DefaultGuardPolicy() GuardPolicy { return resilience.DefaultPolicy() }

// WithGuard wraps the engine in the guarded supervisor (compiled
// techniques only). Open then returns a *GuardedSim.
func WithGuard(p GuardPolicy) Option {
	return func(o *options) { o.guard, o.guardSet = p, true }
}

// WithFaultInjection attaches a chaos injector to the guarded paths —
// testing and drills only; requires WithGuard.
func WithFaultInjection(inj FaultInjector) Option {
	return func(o *options) { o.inject = inj }
}

// wrapGuard applies WithGuard to a built compiled engine: without it the
// engine is returned as is.
func wrapGuard(base compiledEngine, o options) Engine {
	if !o.guardSet {
		return base
	}
	core := base.unwrap().core
	core.SetGuard(o.guard.LevelBudget)
	core.SetInjector(o.inject)
	return &GuardedSim{
		compiledEngine: base,
		core:           core,
		pol:            o.guard,
		obs:            o.observer,
		inj:            o.inject,
		one:            make([][]bool, 1),
	}
}

// GuardedSim is a compiled engine under supervision — the result of
// Open with WithGuard. It implements the same optional interfaces as
// the engine it wraps (Tracer, Closer, Streamer, Cloner, Introspector,
// Observable); resets, waveform reads, finals, code sizes and snapshots
// are the embedded engine's own.
//
// Like the engines it wraps, a GuardedSim is not safe for concurrent
// use.
type GuardedSim struct {
	compiledEngine              // the supervised engine
	core           *engine.Core // its runtime: the guard primitives
	pol            GuardPolicy
	obs            *Observer
	inj            FaultInjector

	ref *refsim.Evaluator // lazily built oracle for cross-checks
	one [][]bool          // reusable single-vector batch

	applied   int64 // successfully applied vectors (cross-check phase)
	degraded  bool
	lastFault *EngineFault
}

// EngineName identifies the wrapped configuration.
func (g *GuardedSim) EngineName() string { return g.compiledEngine.EngineName() + "+guarded" }

// Observe attaches a runtime observer (nil detaches); the guard counters
// feed the same observer as the engine's performance counters.
func (g *GuardedSim) Observe(o *Observer) {
	g.obs = o
	g.compiledEngine.Observe(o)
}

// Clone returns an independent guarded engine supervising a clone of
// the wrapped simulator under the same policy and injector: the clone
// shares the compiled programs (no recompilation) and the attached
// Observer, and owns its own checkpoint, degradation state and fault
// record. See (*ParallelSim).Clone for observer-sharing semantics.
func (g *GuardedSim) Clone() (Engine, error) {
	cl, err := g.unwrap().clone()
	if err != nil {
		return nil, err
	}
	return wrapGuard(cl, options{guard: g.pol, guardSet: true, inject: g.inj, observer: g.obs}), nil
}

// Degraded reports whether a fault has quarantined the execution
// strategy (the engine now runs sequentially).
func (g *GuardedSim) Degraded() bool { return g.degraded }

// LastFault returns the most recent fault the supervisor handled —
// including faults that were recovered by degradation and never
// surfaced to the caller — or nil.
func (g *GuardedSim) LastFault() *EngineFault { return g.lastFault }

// Policy returns the supervision configuration.
func (g *GuardedSim) Policy() GuardPolicy { return g.pol }

// FaultTarget returns the chaos-injection coordinate of net n's settled
// bit: the state word and mask a corruption injector must flip for the
// flip to stay output-visible, and the last level of the activity-gated
// level loop (a flip injected any earlier may be overwritten before the
// vector finishes; 0 under other strategies). Drills and tests only.
func (g *GuardedSim) FaultTarget(n NetID) (slot int, mask uint64, lastLevel int) {
	slot, mask = g.core.FinalSlot(n)
	if p := g.core.ExecPlan(); p != nil {
		return slot, mask, p.Stats().Levels - 1
	}
	return slot, mask, 0
}

// Apply simulates one input vector under guard — a one-vector batch:
// checkpointed, degraded and replayed exactly like ApplyStream.
func (g *GuardedSim) Apply(vec []bool) error {
	g.one[0] = vec
	err := g.ApplyStreamCtx(context.Background(), g.one)
	g.one[0] = nil
	return err
}

// ApplyStream simulates a vector stream under guard with no deadline.
func (g *GuardedSim) ApplyStream(vecs [][]bool) error {
	return g.ApplyStreamCtx(context.Background(), vecs)
}

// ApplyStreamCtx simulates a vector stream under guard: the batch is
// checkpointed, faults degrade execution per the policy ladder (see the
// package comment above), and ctx cancels or deadlines the stream
// mid-flight. On a nil return the stream completed coherently — possibly
// degraded, but bit-identical to a sequential run. On a non-nil return
// the state has been rolled back to the batch checkpoint and the error
// carries (or is) a typed *EngineFault.
func (g *GuardedSim) ApplyStreamCtx(ctx context.Context, vecs [][]bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(vecs) == 0 {
		return nil
	}
	g.core.Save()
	attempt := 0
	for i := 0; i < len(vecs); {
		err := g.core.ApplyVectorCtx(ctx, vecs[i])
		if err == nil {
			g.applied++
			if n := g.pol.CrossCheckEvery; n > 0 && g.applied%int64(n) == 0 {
				err = g.crossCheck(vecs[i])
			}
		}
		if err == nil {
			i++
			continue
		}
		f, ok := resilience.AsFault(err)
		if !ok {
			return err // not a fault: validation error, oracle failure
		}
		g.lastFault = f
		if g.obs != nil {
			g.obs.AddGuardFault(f.Kind)
		}
		// A canceled context is an instruction, not a failure: roll the
		// batch back and honor it.
		if f.Kind == resilience.FaultCanceled || ctx.Err() != nil {
			g.rollback(i)
			return f
		}
		if !g.degraded {
			// First fault: quarantine the execution strategy and replay
			// the batch sequentially from the checkpoint. Quarantining is
			// not a retry — the sequential path gets its own attempts.
			g.core.Quarantine()
			g.degraded = true
			if g.obs != nil {
				g.obs.AddGuardQuarantine()
				g.obs.AddGuardReplays(int64(i + 1))
			}
			if rerr := g.rollback(i); rerr != nil {
				return rerr
			}
			i, attempt = 0, 0
			continue
		}
		if f.Transient() && attempt < g.pol.MaxRetries {
			if g.obs != nil {
				g.obs.AddGuardRetry()
				g.obs.AddGuardReplays(int64(i + 1))
			}
			if d := g.pol.Backoff(attempt); d > 0 {
				time.Sleep(d)
			}
			attempt++
			if rerr := g.rollback(i); rerr != nil {
				return rerr
			}
			i = 0
			continue
		}
		g.rollback(i)
		return f
	}
	return nil
}

// rollback rewinds the batch: the i successfully applied vectors are
// un-counted and the engine state restored from the checkpoint.
func (g *GuardedSim) rollback(i int) error {
	g.applied -= int64(i)
	return g.core.Restore()
}

// crossCheck compares the primary outputs of the last applied vector
// against the zero-delay oracle (for a combinational circuit the settled
// zero-delay values equal the unit-delay finals). A mismatch is silent
// corruption: a FaultCorruption carrying the first diverging output net.
func (g *GuardedSim) crossCheck(vec []bool) error {
	if g.obs != nil {
		g.obs.AddGuardCrossCheck()
	}
	if g.ref == nil {
		ref, err := refsim.NewEvaluator(g.Circuit())
		if err != nil {
			return err
		}
		g.ref = ref
	}
	settled, err := g.ref.Evaluate(vec)
	if err != nil {
		return err
	}
	for _, id := range g.Circuit().Outputs {
		if g.Final(id) != settled[id] {
			if g.obs != nil {
				g.obs.AddGuardMismatch()
			}
			return resilience.Corruption(g.compiledEngine.EngineName(), int(id))
		}
	}
	return nil
}

var (
	_ compiledEngine = (*GuardedSim)(nil)
	_ Cloner         = (*GuardedSim)(nil)
)

package shard

import (
	"context"
	"time"

	"udsim/internal/resilience"
)

// This file is the engine's guarded run path: RunCtx executes the plan
// like Run but under supervision — a panic is recovered into a typed
// *resilience.EngineFault, the caller's context is checked between
// levels, and each level is timed against a stall budget. The guarded
// work is checked per level (Engine.run), so guarding is
// pay-for-what-you-use.
//
// A panic or an overrun poisons the engine: after RunCtx returns such a
// fault it refuses every later run. The caller is expected to quarantine
// the engine and fall back to sequential execution — that is exactly
// what the facade's Guarded engine does.

// engineName labels shard-engine faults.
const engineName = "shard"

// SetGuard sets the guarded run path's per-level stall budget (0
// disables stall detection). Must not be called concurrently with
// RunCtx.
func (e *Engine) SetGuard(budget time.Duration) { e.budget = budget }

// SetInjector attaches a fault injector consulted once per level, as
// shard 0, on the guarded path only. Must not be called concurrently
// with RunCtx; nil detaches.
func (e *Engine) SetInjector(inj resilience.Injector) { e.inj = inj }

// Fault returns the fault that poisoned the engine, or nil.
func (e *Engine) Fault() *resilience.EngineFault { return e.fault }

// RunCtx executes the plan over st like Run, but guarded: panics, levels
// overrunning the SetGuard budget and ctx cancellation/deadlines all
// surface as a typed *resilience.EngineFault instead of crashing or
// hanging. A nil return is bit-identical to Run. A run ended by its
// context between levels damaged nothing, so the engine stays usable;
// after a panic or an overrun — a stall fault witnessed by its (level,
// shard) — the engine is poisoned and refuses every later run.
func (e *Engine) RunCtx(ctx context.Context, st []uint64) error {
	if e.poisoned {
		return resilience.Quarantined(engineName)
	}
	if err := ctx.Err(); err != nil {
		return resilience.FromContext(engineName, err)
	}
	if inj := e.inj; inj != nil {
		inj.BeginRun()
	}
	return e.run(ctx, st)
}

// overrun is a guarded run's stall check, made after each level and
// each injector call: once more than budget has passed since the
// previous check at *mark it poisons the engine with a stall fault
// witnessed by level, and otherwise it moves the mark.
func (e *Engine) overrun(level int, budget time.Duration, mark *time.Time) *resilience.EngineFault {
	now := time.Now()
	if now.Sub(*mark) <= budget {
		*mark = now
		return nil
	}
	f := resilience.Stall(engineName, level)
	f.Shard = 0
	return e.poison(f)
}

// poison records f as the fault that poisoned the engine and returns it.
func (e *Engine) poison(f *resilience.EngineFault) *resilience.EngineFault {
	e.fault, e.poisoned = f, true
	return f
}

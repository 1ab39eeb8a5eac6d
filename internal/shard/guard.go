package shard

import (
	"context"
	"time"

	"udsim/internal/resilience"
)

// This file is the engine's guarded run path: RunCtx executes the plan
// like Run but under supervision — every worker recovers panics into a
// typed *resilience.EngineFault, a watchdog cancels barrier generations
// stuck past a per-level budget, and caller contexts cancel mid-run.
// Both entries run the same level loop (Engine.run); the guarded work in
// it is checked per level behind the published guarded flag, so guarding
// is pay-for-what-you-use. A solo run — a one-worker plan, or an
// activity-gated one, which runs on the caller alone — crosses no
// barrier for the watchdog to see stuck, so it checks its context and
// times its levels against the budget itself, and it is never watched:
// ArmStream leaves a solo engine unarmed.
//
// A fault poisons the engine: the barrier state is unrecoverable once a
// party abandoned a crossing, so after RunCtx returns a non-nil error
// only Close (and the read-only accessors) may be used. The caller is
// expected to quarantine the engine and fall back to sequential
// execution — that is exactly what the facade's Guarded engine does.

// engineName labels shard-engine faults.
const engineName = "shard"

// SetGuard configures the guarded run path: budget is the per-level
// stall budget, enforced by the watchdog or by a solo run itself (0
// disables stall detection), grace bounds how long a faulted run waits
// for in-flight workers before abandoning them (0 means one second).
// Must not be called concurrently with RunCtx.
func (e *Engine) SetGuard(budget, grace time.Duration) {
	e.budget = budget
	e.grace = grace
}

// SetInjector attaches a fault injector consulted once per (level,
// shard) on the guarded path only. Must not be called concurrently with
// RunCtx; nil detaches.
func (e *Engine) SetInjector(inj resilience.Injector) { e.inj = inj }

// Fault returns the fault that poisoned the engine, or nil.
func (e *Engine) Fault() *resilience.EngineFault { return e.fault.Load() }

// Leaked reports whether a faulted run abandoned a wedged worker. A
// leaked worker may still write to the state array it was given, so the
// caller must stop using that array (detach it) before continuing.
func (e *Engine) Leaked() bool { return e.leaked }

// ensureCallbacks lazily spawns the watchdog goroutine and builds the
// two callbacks once, so arming stays allocation-free afterwards. The
// stall level is the barrier generation modulo the plan's level count:
// with stream-level arming runStartGen marks the stream start, not the
// faulted run's, and the modulo recovers the level within the run.
func (e *Engine) ensureCallbacks() {
	if e.wd != nil {
		return
	}
	e.wd = resilience.NewWatchdog()
	e.onStall = func() {
		lvl := int(e.bar.gen.Load() - e.runStartGen)
		if n := len(e.plan.levels); n > 0 {
			lvl %= n
		}
		e.fault.CompareAndSwap(nil, resilience.Stall(engineName, lvl))
		e.bar.cancel()
	}
	e.onCtx = func() {
		err := e.ctx.Err()
		if err == nil {
			err = context.Canceled
		}
		e.fault.CompareAndSwap(nil, resilience.FromContext(engineName, err))
		e.bar.cancel()
	}
}

// ArmStream arms the watchdog once for a whole guarded vector stream.
// Per-vector RunCtx calls then skip the two channel handshakes with the
// watchdog goroutine that would otherwise bracket every run — the
// dominant guarded-path cost on short vectors. The stall budget still
// applies per barrier generation; inter-vector dispatch counts against
// it, which any sane budget dwarfs. DisarmStream must be called when
// the stream ends, before Quarantine or Close (Close disarms as a
// backstop). A context/watchdog fault between runs poisons the barrier
// and is surfaced by the next RunCtx. A no-op on a solo engine, whose
// runs supervise themselves.
func (e *Engine) ArmStream(ctx context.Context) {
	if e.streamArmed || e.poisoned || e.solo() {
		return
	}
	if e.budget <= 0 && ctx.Done() == nil {
		return
	}
	e.ensureCallbacks()
	e.fault.Store(nil)
	e.ctx = ctx
	e.runStartGen = e.bar.gen.Load()
	e.wd.Arm(ctx, e.budget, &e.bar.gen, e.onStall, e.onCtx)
	e.streamArmed = true
}

// DisarmStream ends a stream-level arming; a no-op otherwise.
func (e *Engine) DisarmStream() {
	if e.streamArmed {
		e.wd.Disarm()
		e.streamArmed = false
	}
}

// RunCtx executes the plan over st like Run, but guarded: worker panics,
// barrier stalls past the SetGuard budget, and ctx
// cancellation/deadlines all surface as a typed *resilience.EngineFault
// instead of crashing or hanging. A nil return is bit-identical to Run.
// After a non-nil return the engine is poisoned and supports only Close;
// if Leaked() additionally reports true, st must be abandoned too. The
// exception is a solo run ended by its context between levels: it
// damaged nothing shared, so that engine stays usable. A solo run that
// overruns the budget at one level is a stall fault witnessed by its
// (level, shard), and poisons the engine like a stuck crossing.
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

	solo := e.solo()
	watch := false
	if e.streamArmed {
		// A watchdog or context fault that fired between runs already
		// poisoned the barrier; surface it before dispatching workers
		// into a crossing that can never complete.
		if f := e.fault.Load(); f != nil {
			e.poisoned = true
			return f
		}
	} else {
		e.fault.Store(nil)
		watch = !solo && (e.budget > 0 || ctx.Done() != nil)
		if watch {
			e.ensureCallbacks()
			e.ctx = ctx
			e.runStartGen = e.bar.gen.Load()
			e.wd.Arm(ctx, e.budget, &e.bar.gen, e.onStall, e.onCtx)
		}
	}

	// A solo run has no barrier to watch, so it checks ctx itself
	// between levels.
	var soloCtx context.Context
	if solo {
		soloCtx = ctx
	}
	e.publish(st, true)
	err := e.run(0, soloCtx)
	if !solo && (err != nil || e.fault.Load() != nil) {
		// Faulted run: the poisoned barrier makes every helper abandon
		// and report in; drain those reports (bounded by the grace) so
		// no helper can still touch st after we return. A clean run
		// needs no drain — the final barrier crossing already ordered
		// every helper's last write before the caller's return, and
		// helpers send no token. (A fault recorded after a clean final
		// crossing cannot involve in-flight state access either.)
		e.drainFin()
	}
	if watch {
		e.wd.Disarm()
	}
	if f := e.fault.Load(); f != nil {
		e.poisoned = true
		return f
	}
	if err != nil && !solo {
		// Unreachable belt-and-braces: a poisoned barrier always has its
		// fault recorded first (the CAS precedes the cancel).
		e.poisoned = true
	}
	return err
}

// overrun is a solo guarded run's own stall check, made after each
// level and each injector call: it records a stall fault witnessed by
// (level, shard) once more than the budget has passed since the previous
// check at *mark, and otherwise moves the mark.
func (e *Engine) overrun(level, shard int, budget time.Duration, mark *time.Time) *resilience.EngineFault {
	now := time.Now()
	if now.Sub(*mark) <= budget {
		*mark = now
		return nil
	}
	f := resilience.Stall(engineName, level)
	f.Shard = shard
	e.fault.CompareAndSwap(nil, f)
	return e.fault.Load()
}

// drainFin collects one abandon token per helper so a faulted RunCtx
// never returns while a helper may still touch the state array. Called
// on the fault path only: the poisoned barrier makes every helper
// abandon its run and send a token. The drain is bounded by the
// SetGuard grace; a worker that fails to park in time is abandoned
// (Leaked). A helper that raced the poison and completed its final
// crossing cleanly sends no token — the grace timeout converts that
// (rare) mixed crossing into a conservative leak.
func (e *Engine) drainFin() {
	grace := e.grace
	if grace <= 0 {
		grace = time.Second
	}
	t := time.NewTimer(grace) // fault path only; never in steady state
	defer t.Stop()
	for range e.helpers {
		select {
		case <-e.fin:
		case <-t.C:
			e.leaked = true
			return
		}
	}
}

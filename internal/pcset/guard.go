package pcset

import (
	"context"
	"fmt"
	"time"

	"udsim/internal/circuit"
	"udsim/internal/resilience"
)

// Guarded execution for the PC-set method — the exact counterpart of
// parsim's guard surface: context-aware apply variants that convert
// panics, stalls and cancellations into typed *resilience.EngineFault
// values, plus the checkpoint/rollback and quarantine primitives the
// facade's Guarded engine builds its degradation ladder from. The
// PC-set method keeps all mutable per-vector state in the variable
// array (zero-insertion preserves previous-vector values in place), so
// its checkpoint is just the state array.

// guardEngine labels faults raised by this simulator's own dispatch
// (the sharded engine labels its faults "shard").
const guardEngine = "pcset"

// SetGuard configures the guarded-path budgets: budget is the sharded
// engine's per-level barrier-stall budget (0 disables the watchdog) and
// grace bounds how long a faulted sharded run waits for in-flight
// workers before abandoning them. Forwarded through ConfigureExec, so
// the order of the two calls does not matter.
func (s *Sim) SetGuard(budget, grace time.Duration) {
	s.levelBudget, s.guardGrace = budget, grace
	if s.exec != nil {
		s.exec.SetGuard(budget, grace)
	}
}

// SetInjector attaches a fault injector consulted on the guarded paths
// only (once per run, per (level, shard) when sharded); nil detaches.
func (s *Sim) SetInjector(inj resilience.Injector) {
	s.inj = inj
	if s.exec != nil {
		s.exec.SetInjector(inj)
	}
}

// ArmGuard arms the sharded engine's watchdog once for a whole guarded
// vector batch, so the per-vector applies skip the arm/disarm handshake
// with the watchdog goroutine. DisarmGuard must be called when the
// batch ends, before Quarantine or Close. A no-op under sequential
// execution (no barrier to watch).
func (s *Sim) ArmGuard(ctx context.Context) {
	if s.exec != nil {
		s.exec.ArmStream(ctx)
	}
}

// DisarmGuard ends a batch-level ArmGuard; a no-op otherwise.
func (s *Sim) DisarmGuard() {
	if s.exec != nil {
		s.exec.DisarmStream()
	}
}

// ApplyVectorCtx is ApplyVector under guard: panics anywhere in the
// vector application become a FaultPanic, ctx cancellation/deadline a
// FaultCanceled/FaultDeadline, and a sharded barrier stuck past the
// SetGuard budget a FaultDeadline — always a typed *EngineFault, never a
// crash or hang. After a fault the simulator's state is undefined until
// Restore (or ResetConsistent); a sharded engine that faulted is
// poisoned and must be quarantined before the next vector.
func (s *Sim) ApplyVectorCtx(ctx context.Context, inputs []bool) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		return resilience.FromContext(guardEngine, cerr)
	}
	defer func() {
		if r := recover(); r != nil {
			err = resilience.FromPanic(guardEngine, 0, 0, -1, r)
		}
	}()
	return s.apply(ctx, inputs)
}

// ApplyStreamCtx applies a stream of vectors with per-vector context
// checks, stopping at the first fault. Unlike ApplyStream it always runs
// the receiver's one coherent stream — the vector-batch strategy's
// concurrent blocks would tear the checkpoint/rollback semantics the
// guarded engine needs.
func (s *Sim) ApplyStreamCtx(ctx context.Context, vecs [][]bool) error {
	for i, v := range vecs {
		if len(v) != len(s.c.Inputs) {
			return fmt.Errorf("pcset: vector %d has %d values for %d primary inputs", i, len(v), len(s.c.Inputs))
		}
	}
	for _, v := range vecs {
		if err := s.ApplyVectorCtx(ctx, v); err != nil {
			return err
		}
	}
	return nil
}

// runSimCtx executes the simulation program under the configured
// strategy like runSim, but guarded. Sequential execution relies on the
// ApplyVectorCtx recover for panic isolation; sharded execution
// delegates to the engine's RunCtx.
func (s *Sim) runSimCtx(ctx context.Context) error {
	o := s.obs
	if s.exec != nil {
		if o == nil {
			return s.exec.RunCtx(ctx, s.st)
		}
		t0 := time.Now()
		err := s.exec.RunCtx(ctx, s.st)
		o.AddRun(time.Since(t0))
		return err
	}
	if err := ctx.Err(); err != nil {
		return resilience.FromContext(guardEngine, err)
	}
	if inj := s.inj; inj != nil {
		inj.BeginRun()
		inj.AtLevel(0, 0, s.st)
	}
	if o == nil {
		s.seq.Run(s.st)
		return nil
	}
	t0 := time.Now()
	s.seq.Run(s.st)
	d := time.Since(t0)
	o.AddRun(d)
	o.AddLevel(0, 0, d, len(s.simProg.Code))
	return nil
}

// Checkpoint is a saved copy of the simulator's mutable state (the
// variable array — the PC-set method keeps everything there). The buffer
// is reused across Save calls, so batch-granularity checkpointing stays
// allocation-free in steady state.
type Checkpoint struct {
	st    []uint64
	valid bool
}

// Save copies the simulator's mutable state into ck.
func (s *Sim) Save(ck *Checkpoint) {
	ck.st = append(ck.st[:0], s.st...)
	ck.valid = true
}

// Restore rewinds the simulator to a saved checkpoint. The checkpoint
// stays valid (a batch can be rolled back more than once).
func (s *Sim) Restore(ck *Checkpoint) error {
	if !ck.valid {
		return fmt.Errorf("pcset: restoring an empty checkpoint")
	}
	s.st = append(s.st[:0], ck.st...)
	return nil
}

// DetachState replaces the state array with a fresh one of the same
// size. Required after a quarantine that leaked a wedged worker: the
// abandoned goroutine may still write through its stale slice, so the
// old array must never be read again — the caller restores content from
// a checkpoint (or ResetConsistent) rather than copying it over.
func (s *Sim) DetachState() {
	s.st = make([]uint64, len(s.st))
}

// Quarantine releases the configured execution strategy after a fault
// and reverts to sequential execution; the simulator itself remains
// usable. It reports whether an in-flight worker had to be abandoned, in
// which case the caller must DetachState before touching the state
// again.
func (s *Sim) Quarantine() (leaked bool) {
	if s.exec != nil {
		leaked = s.exec.Leaked()
	}
	s.Close()
	return leaked
}

// FinalSlot returns the state-word index and bit mask holding net id's
// final value (the variable of its maximum PC element, lane 0) — the
// coordinate a chaos corruption injector must hit for the flip to stay
// output-visible.
func (s *Sim) FinalSlot(id circuit.NetID) (slot int, mask uint64) {
	vs := s.vars[id]
	return int(vs[len(vs)-1]), 1
}

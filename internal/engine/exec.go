package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"udsim/internal/circuit"
	"udsim/internal/resilience"
	"udsim/internal/shard"
)

// ConfigureExec selects the execution strategy for the simulation program
// and returns the resolved strategy (Auto resolves by shard.Recommend).
// workers <= 0 means GOMAXPROCS. Sharded and activity-gated execution are
// bit-identical to sequential; VectorBatch changes only ApplyStream, which
// then runs contiguous vector blocks as independent substreams.
// Reconfiguring releases the previous strategy's workers.
func (c *Core) ConfigureExec(strategy shard.Strategy, workers int) (shard.Strategy, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if strategy == shard.Auto {
		strategy = shard.Recommend(workers)
	}
	var plan *shard.Plan
	if strategy == shard.Sharded || strategy == shard.ActivityGated {
		var err error
		plan, err = shard.Partition(c.simProg, c.scratchStart, workers)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.label, err)
		}
		// The measured barrier cost feeds the plan's speedup model, so
		// EstimatedSpeedup reflects this machine rather than the static
		// default.
		plan.SetBarrierCost(shard.CalibrateBarrier(workers))
	}
	c.Close()
	switch strategy {
	case shard.Sequential:
	case shard.Sharded, shard.ActivityGated:
		if strategy == shard.ActivityGated && c.gating == nil {
			return 0, fmt.Errorf("%s: cannot configure strategy %v", c.label, strategy)
		}
		if need := plan.StateSize(); need > len(c.St) {
			st := make([]uint64, need)
			copy(st, c.St)
			c.St = st
		}
		c.exec = shard.NewEngine(plan)
		c.exec.SetGuard(c.levelBudget, c.guardGrace)
		c.exec.SetInjector(c.inj)
		if strategy == shard.ActivityGated {
			if err := c.gating.Gate(c.exec); err != nil {
				c.Close()
				return 0, err
			}
		}
	case shard.VectorBatch:
		c.pool = shard.NewPool(workers)
	default:
		return 0, fmt.Errorf("%s: cannot configure strategy %v", c.label, strategy)
	}
	c.strategy = strategy
	if c.obs != nil {
		// Re-attach: the shape (levels × workers) just changed, so the
		// observer's cell grid must be resized — which resets counters
		// and starts a new observation window.
		c.SetObserver(c.obs)
	}
	return strategy, nil
}

// ExecStrategy returns the configured execution strategy (Sequential
// until ConfigureExec succeeds).
func (c *Core) ExecStrategy() shard.Strategy { return c.strategy }

// ExecPlan returns the sharded engine's plan, or nil when not sharded.
func (c *Core) ExecPlan() *shard.Plan {
	if c.exec == nil {
		return nil
	}
	return c.exec.Plan()
}

// Close releases the execution workers configured by ConfigureExec and
// reverts to sequential execution. The simulator remains usable.
func (c *Core) Close() {
	if c.exec != nil {
		c.exec.Close()
		c.exec = nil
	}
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
	if c.gating != nil {
		_ = c.gating.Gate(nil) // dropping gating cannot fail
	}
	c.strategy = shard.Sequential
}

// Clone returns an independent simulator sharing the compiled programs
// and layout but owning a copy of the mutable state, configured for
// sequential execution. Clones back the vector-batch strategy's blocks.
func (c *Core) Clone() Technique { return c.fork().t }

func (c *Core) fork() *Core {
	c.flatten()
	t := c.t.Fork()
	cl := t.core()
	cl.St = append([]uint64(nil), c.St...)
	cl.PrevPI = append([]bool(nil), c.PrevPI...)
	cl.PrevFinal = append([]bool(nil), c.PrevFinal...)
	cl.exec, cl.pool, cl.clones = nil, nil, nil
	cl.batch, cl.block = nil, nil // a copied block would run c's blocks
	cl.strategy = shard.Sequential
	cl.ref = nil // the evaluator is single-threaded state; rebuild on demand
	cl.ck = checkpoint{}
	cl.bind(t)
	return cl
}

// checkStream validates a vector stream's widths before any is applied.
func (c *Core) checkStream(vecs [][]bool) error {
	for i, v := range vecs {
		if len(v) != len(c.c.Inputs) {
			return fmt.Errorf("%s: vector %d has %d values for %d primary inputs", c.label, i, len(v), len(c.c.Inputs))
		}
	}
	return nil
}

// ApplyStream simulates a stream of input vectors. Under the Sequential
// and Sharded strategies this is the technique's apply in a loop — one
// coherent stream, bit-identical between the two. Under VectorBatch the
// stream is split into one contiguous block per worker and the blocks
// run concurrently as independent substreams on cloned state (the
// simulator itself carries block 0): like the PC-set method's 64 bit
// lanes, each block's previous-vector state is its own previous vector,
// and blocks persist across ApplyStream calls. After return the receiver
// holds the history of its block's last vector.
func (c *Core) ApplyStream(vecs [][]bool) error {
	if err := c.checkStream(vecs); err != nil {
		return err
	}
	n := 1
	if c.strategy == shard.VectorBatch && c.pool != nil {
		n = c.pool.Workers()
	}
	if n < 2 || len(vecs) < 2*n {
		for _, v := range vecs {
			if err := c.t.Apply(nil, v); err != nil {
				return err
			}
		}
		return nil
	}
	for len(c.clones) < n-1 {
		c.clones = append(c.clones, c.fork())
	}
	if c.block == nil {
		c.block = c.runBlock
	}
	c.batch, c.blockLen = vecs, (len(vecs)+n-1)/n
	c.pool.Do(c.block)
	c.batch = nil
	return nil
}

// runBlock applies worker w's contiguous block of the vector-batch
// stream: block 0 on the core itself, block w on clone w-1.
func (c *Core) runBlock(w int) {
	sim := c
	if w > 0 {
		sim = c.clones[w-1]
	}
	lo := min(w*c.blockLen, len(c.batch))
	hi := min(lo+c.blockLen, len(c.batch))
	for _, v := range c.batch[lo:hi] {
		sim.t.Apply(nil, v) // lengths pre-validated; cannot fail
	}
}

// BlockFinal returns the final value of a net in vector-batch block k
// (block 0 is the receiver itself). It panics when k is out of range of
// the blocks materialized so far.
func (c *Core) BlockFinal(k int, n circuit.NetID) bool {
	if k == 0 {
		return c.Final(n)
	}
	return c.clones[k-1].Final(n)
}

// Guarded execution: context-aware apply variants that convert panics,
// stalls and cancellations into typed *resilience.EngineFault values
// (labelled with the technique; the sharded engine labels its own faults
// "shard"), plus the checkpoint/rollback and quarantine primitives the
// facade's guarded engine builds its degradation ladder from. The
// unguarded paths are untouched.

// SetGuard configures the guarded-path budgets: budget is the sharded
// engine's per-level barrier-stall budget (0 disables the watchdog) and
// grace bounds how long a faulted sharded run waits for in-flight
// workers before abandoning them. Forwarded through ConfigureExec, so
// the order of the two calls does not matter.
func (c *Core) SetGuard(budget, grace time.Duration) {
	c.levelBudget, c.guardGrace = budget, grace
	if c.exec != nil {
		c.exec.SetGuard(budget, grace)
	}
}

// SetInjector attaches a fault injector consulted on the guarded paths
// only (once per run, per (level, shard) when sharded); nil detaches.
func (c *Core) SetInjector(inj resilience.Injector) {
	c.inj = inj
	if c.exec != nil {
		c.exec.SetInjector(inj)
	}
}

// ArmGuard arms the sharded engine's watchdog once for a whole guarded
// vector batch, so the per-vector applies skip the arm/disarm handshake
// with the watchdog goroutine. DisarmGuard must be called when the
// batch ends, before Quarantine or Close. A no-op under sequential
// execution (no barrier to watch).
func (c *Core) ArmGuard(ctx context.Context) {
	if c.exec != nil {
		c.exec.ArmStream(ctx)
	}
}

// DisarmGuard ends a batch-level ArmGuard; a no-op otherwise.
func (c *Core) DisarmGuard() {
	if c.exec != nil {
		c.exec.DisarmStream()
	}
}

// ApplyVectorCtx is the technique's apply under guard: panics anywhere
// in the vector application become a FaultPanic, ctx
// cancellation/deadline a FaultCanceled/FaultDeadline, and a sharded
// barrier stuck past the SetGuard budget a FaultDeadline — always a
// typed *EngineFault, never a crash or hang. After a fault the state is
// undefined until Restore (or ResetConsistent); a sharded engine that
// faulted is poisoned and must be quarantined before the next vector.
func (c *Core) ApplyVectorCtx(ctx context.Context, inputs []bool) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		return resilience.FromContext(c.label, cerr)
	}
	defer func() {
		if r := recover(); r != nil {
			err = resilience.FromPanic(c.label, 0, 0, -1, r)
		}
	}()
	return c.t.Apply(ctx, inputs)
}

// ApplyStreamCtx applies a stream of vectors with per-vector context
// checks, stopping at the first fault. Unlike ApplyStream it always runs
// the receiver's one coherent stream — the vector-batch strategy's
// concurrent blocks would tear the checkpoint/rollback semantics the
// guarded engine needs.
func (c *Core) ApplyStreamCtx(ctx context.Context, vecs [][]bool) error {
	if err := c.checkStream(vecs); err != nil {
		return err
	}
	for _, v := range vecs {
		if err := c.ApplyVectorCtx(ctx, v); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint is a saved copy of the mutable per-vector state: the arena
// and the previous-vector inputs and finals. Its buffers are reused
// across Save calls, so batch-granularity checkpointing stays
// allocation-free in steady state.
type checkpoint struct {
	st                []uint64
	prevPI, prevFinal []bool
	valid             bool
}

// Save copies the mutable per-vector state into the core's checkpoint.
func (c *Core) Save() {
	c.flatten()
	c.ck.st = append(c.ck.st[:0], c.St...)
	c.ck.prevPI = append(c.ck.prevPI[:0], c.PrevPI...)
	c.ck.prevFinal = append(c.ck.prevFinal[:0], c.PrevFinal...)
	c.ck.valid = true
}

// Restore rewinds the state to the last Save. The checkpoint stays valid
// (a batch can be rolled back more than once).
func (c *Core) Restore() error {
	if !c.ck.valid {
		return fmt.Errorf("%s: restoring an empty checkpoint", c.label)
	}
	c.St = append(c.St[:0], c.ck.st...)
	copy(c.PrevPI, c.ck.prevPI)
	copy(c.PrevFinal, c.ck.prevFinal)
	// The restored fields' relation to the gating bookkeeping is unknown
	// (the rolled-back vectors may have flattened or dirtied them), so
	// the next gated vector must run everything.
	c.invalidate()
	return nil
}

// DetachState replaces the state array with a fresh one of the same
// size. Required after a quarantine that leaked a wedged worker: the
// abandoned goroutine may still write through its stale slice, so the
// old array must never be read again — the caller restores content from
// the checkpoint (or ResetConsistent) rather than copying it over.
func (c *Core) DetachState() {
	c.St = make([]uint64, len(c.St))
	c.invalidate()
}

// Quarantine releases the configured execution strategy after a fault
// and reverts to sequential execution; the simulator itself remains
// usable. It reports whether an in-flight worker had to be abandoned, in
// which case the caller must DetachState before touching the state
// again.
func (c *Core) Quarantine() (leaked bool) {
	if c.exec != nil {
		leaked = c.exec.Leaked()
	}
	c.Close()
	return leaked
}

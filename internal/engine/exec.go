package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"udsim/internal/resilience"
	"udsim/internal/shard"
)

// ConfigureExec selects the execution strategy for the simulation program
// and returns the resolved strategy: Auto resolves to VectorBatch on more
// than one worker and to Sequential on one. workers <= 0 means
// GOMAXPROCS; it sizes the vector-batch pool, and the activity-gated
// strategy accepts and ignores it. Every strategy keeps ApplyStream's
// contract, one coherent stream bit-identical to sequential execution.
// A strategy that cannot be configured is an error that leaves the
// previous strategy in place; otherwise the previous strategy's workers
// are released.
func (c *Core) ConfigureExec(strategy shard.Strategy, workers int) (shard.Strategy, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if strategy == shard.Auto {
		strategy = shard.Sequential
		if workers > 1 {
			strategy = shard.VectorBatch
		}
	}
	var e *shard.Engine
	switch strategy {
	case shard.Sequential, shard.VectorBatch:
	case shard.ActivityGated:
		if c.gating == nil {
			return 0, fmt.Errorf("%s: cannot configure strategy %v", c.label, strategy)
		}
		plan, err := shard.Partition(c.simProg, c.scratchStart)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.label, err)
		}
		e = shard.NewEngine(plan)
		e.SetGuard(c.levelBudget)
		e.SetInjector(c.inj)
		// Gate replaces the installed gating only once it has accepted e.
		if err := c.gating.Gate(e); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("%s: cannot configure strategy %v", c.label, strategy)
	}
	if c.pool != nil {
		c.pool.Close()
		c.pool = nil
	}
	if e == nil && c.gating != nil {
		_ = c.gating.Gate(nil) // dropping gating cannot fail
	}
	c.exec = e
	if strategy == shard.VectorBatch {
		c.pool = shard.NewPool(workers)
	}
	c.strategy = strategy
	if c.obs != nil {
		// Re-attach: the shape (levels) just changed, so the observer's
		// cell grid must be resized — which resets counters and starts a
		// new observation window.
		c.SetObserver(c.obs)
	}
	return strategy, nil
}

// ExecStrategy returns the configured execution strategy (Sequential
// until ConfigureExec succeeds).
func (c *Core) ExecStrategy() shard.Strategy { return c.strategy }

// ExecPlan returns the activity-gated strategy's leveled plan, or nil
// under any other strategy.
func (c *Core) ExecPlan() *shard.Plan {
	if c.exec == nil {
		return nil
	}
	return c.exec.Plan()
}

// Close releases the execution workers configured by ConfigureExec and
// reverts to sequential execution. The simulator remains usable.
func (c *Core) Close() {
	c.exec = nil
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

// ApplyStream simulates a stream of input vectors: one coherent stream,
// bit-identical to applying the vectors one at a time, under every
// strategy. Under VectorBatch the stream is split into one contiguous
// block per worker and the blocks run concurrently, block 0 on the
// simulator itself and block w on clone w-1, which first settles on the
// last vector of block w-1 (ResetConsistent): a vector's waveform
// depends only on the vector before it, since the circuit is acyclic.
// The receiver then takes over the last block's state, so Final, ValueAt
// and the next vector continue from the stream's last vector. A stream
// shorter than two vectors per worker runs one vector at a time.
func (c *Core) ApplyStream(vecs [][]bool) error {
	if err := c.checkStream(vecs); err != nil {
		return err
	}
	n := 1
	if c.pool != nil {
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
	if last := (len(vecs) - 1) / c.blockLen; last > 0 {
		// Swap, not copy: the clone is reseeded before its next block.
		cl := c.clones[last-1]
		c.St, cl.St = cl.St, c.St
		c.PrevPI, cl.PrevPI = cl.PrevPI, c.PrevPI
		c.PrevFinal, cl.PrevFinal = cl.PrevFinal, c.PrevFinal
	}
	return nil
}

// runBlock applies worker w's contiguous block of the vector-batch
// stream: block 0 on the core itself, block w on clone w-1 after
// settling it on the vector before the block.
func (c *Core) runBlock(w int) {
	lo := min(w*c.blockLen, len(c.batch))
	hi := min(lo+c.blockLen, len(c.batch))
	if lo == hi {
		return
	}
	sim := c
	if w > 0 {
		sim = c.clones[w-1]
		// Lengths are pre-validated and the circuit is acyclic, so neither
		// call can fail.
		_ = sim.t.ResetConsistent(c.batch[lo-1])
	}
	for _, v := range c.batch[lo:hi] {
		_ = sim.t.Apply(nil, v)
	}
}

// Guarded execution: context-aware apply variants that convert panics,
// stalls and cancellations into typed *resilience.EngineFault values
// (labelled with the technique; the level loop labels its own faults
// "shard"), plus the checkpoint/rollback and quarantine primitives the
// facade's guarded engine builds its degradation ladder from. The
// unguarded paths are untouched.

// SetGuard sets the per-level stall budget of the activity-gated level
// loop (0 disables it). Forwarded through ConfigureExec, so the order of
// the two calls does not matter.
func (c *Core) SetGuard(budget time.Duration) {
	c.levelBudget = budget
	if c.exec != nil {
		c.exec.SetGuard(budget)
	}
}

// SetInjector attaches a fault injector consulted on the guarded paths
// only (once per run, and per level on the activity-gated level loop);
// nil detaches.
func (c *Core) SetInjector(inj resilience.Injector) {
	c.inj = inj
	if c.exec != nil {
		c.exec.SetInjector(inj)
	}
}

// ApplyVectorCtx is the technique's apply under guard: panics anywhere
// in the vector application become a FaultPanic, ctx
// cancellation/deadline a FaultCanceled/FaultDeadline, and a gated level
// running past the SetGuard budget a FaultDeadline — always a typed
// *EngineFault, never a crash or hang. After a fault the state is
// undefined until Restore (or ResetConsistent); a level loop that
// panicked or stalled is poisoned and must be quarantined before the
// next vector.
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
// checks, stopping at the first fault. Unlike ApplyStream it runs every
// vector on the receiver, so a fault names the vector it hit.
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

// Quarantine releases the configured execution strategy after a fault
// and reverts to sequential execution; the simulator itself remains
// usable.
func (c *Core) Quarantine() { c.Close() }

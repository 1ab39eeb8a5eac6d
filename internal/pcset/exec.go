package pcset

import (
	"fmt"
	"runtime"
	"time"

	"udsim/internal/circuit"
	"udsim/internal/shard"
)

// ConfigureExec selects the execution strategy for the simulation program
// and returns the resolved strategy (Auto resolves via the shard plan's
// recommendation). workers <= 0 means GOMAXPROCS. Sharded execution is
// bit-identical to sequential ApplyVector/ApplyLanes; VectorBatch changes
// only ApplyStream, which then runs contiguous vector blocks as
// independent substreams. Reconfiguring releases the previous strategy's
// workers.
func (s *Sim) ConfigureExec(strategy shard.Strategy, workers int) (shard.Strategy, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var plan *shard.Plan
	if strategy == shard.Auto || strategy == shard.Sharded {
		var err error
		// The PC-set method has no scratch region: every slot is persistent.
		plan, err = shard.Partition(s.simProg, int32(s.simProg.NumVars), workers)
		if err != nil {
			return 0, fmt.Errorf("pcset: %w", err)
		}
	}
	if strategy == shard.Auto {
		strategy = plan.Recommend()
	}
	s.Close()
	switch strategy {
	case shard.Sequential:
	case shard.Sharded:
		s.exec = shard.NewEngine(plan)
		s.exec.SetGuard(s.levelBudget, s.guardGrace)
		s.exec.SetInjector(s.inj)
	case shard.VectorBatch:
		s.pool = shard.NewPool(workers)
	default:
		return 0, fmt.Errorf("pcset: cannot configure strategy %v", strategy)
	}
	s.execStrategy = strategy
	if s.obs != nil {
		// Re-attach: the shape (levels × workers) just changed, so the
		// observer's cell grid must be resized — which resets counters
		// and starts a new observation window.
		s.SetObserver(s.obs)
	}
	return strategy, nil
}

// ExecStrategy returns the configured execution strategy (Sequential
// until ConfigureExec succeeds).
func (s *Sim) ExecStrategy() shard.Strategy { return s.execStrategy }

// ExecPlan returns the sharded engine's plan, or nil when not sharded.
func (s *Sim) ExecPlan() *shard.Plan {
	if s.exec == nil {
		return nil
	}
	return s.exec.Plan()
}

// runSim executes the simulation program under the configured strategy:
// the sharded engine's emission-order cells, or else the program's
// sequential execution form. With an observer attached it brackets the
// run with monotonic-clock reads; the sequential path additionally books
// the whole program as level 0 of a 1×1 grid (the sharded engine books
// its own per-level cells).
func (s *Sim) runSim() {
	o := s.obs
	if o == nil {
		if s.exec != nil {
			s.exec.Run(s.st)
			return
		}
		s.seq.Run(s.st)
		return
	}
	t0 := time.Now()
	if s.exec != nil {
		s.exec.Run(s.st)
		o.AddRun(time.Since(t0))
		return
	}
	s.seq.Run(s.st)
	d := time.Since(t0)
	o.AddRun(d)
	o.AddLevel(0, 0, d, len(s.simProg.Code))
}

// Clone returns an independent simulator sharing the compiled programs
// and layout but owning a copy of the mutable state, configured for
// sequential execution. Clones back the vector-batch strategy's blocks.
func (s *Sim) Clone() *Sim {
	cl := *s
	cl.st = append([]uint64(nil), s.st...)
	cl.exec = nil
	cl.pool = nil
	cl.clones = nil
	cl.execStrategy = shard.Sequential
	cl.ref = nil // the evaluator is single-threaded state; rebuild on demand
	return &cl
}

// ApplyStream simulates a stream of input vectors. Under the Sequential
// and Sharded strategies this is ApplyVector in a loop — one coherent
// stream, bit-identical between the two. Under VectorBatch the stream is
// split into one contiguous block per worker and the blocks run
// concurrently as independent substreams on cloned state (the simulator
// itself carries block 0): like the method's own 64 bit lanes, each
// block's previous-vector state is its own previous vector, and blocks
// persist across ApplyStream calls. After return the receiver holds the
// history of its block's last vector.
func (s *Sim) ApplyStream(vecs [][]bool) error {
	for i, v := range vecs {
		if len(v) != len(s.c.Inputs) {
			return fmt.Errorf("pcset: vector %d has %d values for %d primary inputs", i, len(v), len(s.c.Inputs))
		}
	}
	n := 1
	if s.execStrategy == shard.VectorBatch && s.pool != nil {
		n = s.pool.Workers()
	}
	if n < 2 || len(vecs) < 2*n {
		for _, v := range vecs {
			if err := s.ApplyVector(v); err != nil {
				return err
			}
		}
		return nil
	}
	for len(s.clones) < n-1 {
		s.clones = append(s.clones, s.Clone())
	}
	block := (len(vecs) + n - 1) / n
	s.pool.Do(func(w int) {
		sim := s
		if w > 0 {
			sim = s.clones[w-1]
		}
		lo := w * block
		hi := lo + block
		if hi > len(vecs) {
			hi = len(vecs)
		}
		for _, v := range vecs[lo:hi] {
			sim.ApplyVector(v) // lengths pre-validated; cannot fail
		}
	})
	return nil
}

// BlockFinal returns the final value of a net in vector-batch block k
// (block 0 is the receiver itself). It panics when k is out of range of
// the blocks materialized so far.
func (s *Sim) BlockFinal(k int, id circuit.NetID) bool {
	if k == 0 {
		return s.Final(id)
	}
	return s.clones[k-1].Final(id)
}

// Close releases the execution workers configured by ConfigureExec and
// reverts to sequential execution. The simulator remains usable.
func (s *Sim) Close() {
	if s.exec != nil {
		s.exec.Close()
		s.exec = nil
	}
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
	s.execStrategy = shard.Sequential
}

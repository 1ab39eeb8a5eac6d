package parsim

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
// bit-identical to sequential; VectorBatch changes only ApplyStream,
// which then runs contiguous vector blocks as independent substreams.
// Reconfiguring releases the previous strategy's workers.
func (s *Sim) ConfigureExec(strategy shard.Strategy, workers int) (shard.Strategy, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var plan *shard.Plan
	if strategy == shard.Auto || strategy == shard.Sharded || strategy == shard.ActivityGated {
		var err error
		if s.fuseLevels {
			plan, err = shard.PartitionFused(s.simProg, s.scratchStart, workers,
				shard.FuseOptions{BarrierOps: shard.CalibrateBarrier(workers)})
		} else {
			plan, err = shard.Partition(s.simProg, s.scratchStart, workers)
		}
		if err != nil {
			return 0, fmt.Errorf("parsim: %w", err)
		}
		// The measured barrier cost feeds both the fusion budget above and
		// the plan's speedup model, so Auto's recommendation reflects this
		// machine rather than the static default.
		plan.SetBarrierCost(shard.CalibrateBarrier(workers))
	}
	if strategy == shard.Auto {
		strategy = plan.Recommend()
	}
	s.Close()
	switch strategy {
	case shard.Sequential:
	case shard.Sharded, shard.ActivityGated:
		if strategy == shard.ActivityGated {
			if s.cfg.Align != nil {
				return 0, fmt.Errorf("parsim: activity gating requires the flat or trimmed layout (shift elimination packs previous-vector bits that break the settled-field skip rule)")
			}
			if s.cfg.Delays != nil {
				return 0, fmt.Errorf("parsim: activity gating does not support nominal gate delays")
			}
		}
		if need := plan.StateSize(); need > len(s.st) {
			st := make([]uint64, need)
			copy(st, s.st)
			s.st = st
		}
		s.exec = shard.NewEngine(plan)
		s.exec.SetGuard(s.levelBudget, s.guardGrace)
		s.exec.SetInjector(s.inj)
		if strategy == shard.ActivityGated {
			s.gate = s.buildGater(plan)
			s.exec.SetGate(s.gate.runCell, s.gate.runLevel)
			if s.gate.fine {
				s.exec.SetGateRuns(s.gate.runs, s.gate.runOff)
			}
		}
	case shard.VectorBatch:
		s.pool = shard.NewPool(workers)
	default:
		return 0, fmt.Errorf("parsim: cannot configure strategy %v", strategy)
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

// SetLevelFusion makes subsequent ConfigureExec calls build plans with
// the barrier-deleting level-fusion pass (shard.PartitionFused): sparse
// adjacent levels merge and cheap producer cones are replicated across
// shards so the merged levels need no barrier between them. Fused plans
// remain bit-identical to sequential execution (rules V008/V012/V015
// check the augmented stream). Takes effect at the next ConfigureExec.
func (s *Sim) SetLevelFusion(on bool) { s.fuseLevels = on }

// LevelFusion reports whether level fusion is enabled for plan building.
func (s *Sim) LevelFusion() bool { return s.fuseLevels }

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
// the whole program as level 0 of a 1×1 grid so the snapshot's
// cell/instruction totals stay consistent across strategies (the sharded
// engine books its own per-level cells).
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
	cl.prevFinal = append([]bool(nil), s.prevFinal...)
	cl.prevPI = append([]bool(nil), s.prevPI...)
	cl.piBuf = make([]uint64, 0, cap(s.piBuf))
	cl.exec = nil
	cl.pool = nil
	cl.clones = nil
	cl.gate = nil
	cl.execStrategy = shard.Sequential
	cl.ref = nil // the evaluator is single-threaded state; rebuild on demand
	return &cl
}

// ApplyStream simulates a stream of input vectors. Under the Sequential
// and Sharded strategies this is ApplyVector in a loop — one coherent
// stream, bit-identical between the two. Under VectorBatch the stream is
// split into one contiguous block per worker and the blocks run
// concurrently as independent substreams on cloned state (the simulator
// itself carries block 0): like the PC-set method's 64 bit lanes, each
// block's previous-vector state is its own previous vector, and blocks
// persist across ApplyStream calls. After return the receiver holds the
// history of its block's last vector.
func (s *Sim) ApplyStream(vecs [][]bool) error {
	for i, v := range vecs {
		if len(v) != len(s.c.Inputs) {
			return fmt.Errorf("parsim: vector %d has %d values for %d primary inputs", i, len(v), len(s.c.Inputs))
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
func (s *Sim) BlockFinal(k int, n circuit.NetID) bool {
	if k == 0 {
		return s.Final(n)
	}
	return s.clones[k-1].Final(n)
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
	s.gate = nil
	s.execStrategy = shard.Sequential
}

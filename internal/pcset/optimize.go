package pcset

import (
	"fmt"

	"udsim/internal/dataflow"
	"udsim/internal/program"
	"udsim/internal/shard"
	"udsim/internal/verify"
)

// EliminateDeadStores removes the instructions the vector-loop liveness
// fixpoint proves dead — gate simulations whose variables can never reach
// a monitored net, a final value, or the next vector's zero-insertion —
// and returns how many were removed. Variable numbering is preserved, so
// Trace/Final addressing stays valid; ValueAt of an eliminated
// unmonitored variable may return stale bits, which is why the facade
// keeps this behind an explicit option (the monitor set already declares
// which waveforms must survive).
//
// The optimization is self-checking: after stripping, the full static
// verifier runs over the new programs, and any finding restores the
// originals and reports an error. A configured sharded engine is
// re-partitioned for the stripped program; an attached observer is
// re-attached so its per-level shape tracks the new code.
func (s *Sim) EliminateDeadStores() (int, error) {
	spec := s.Spec()
	spec.Shards = nil // the plan is rebuilt below; liveness ignores it
	res := dataflow.Liveness(verify.StreamOf(spec))
	if res.NDead() == 0 {
		return 0, nil
	}
	oldInit, oldSim, oldSeq := s.initProg, s.simProg, s.seq
	s.initProg, _ = program.Strip(s.initProg, res.DeadInit)
	s.simProg, _ = program.Strip(s.simProg, res.DeadSim)

	restore := func() { s.initProg, s.simProg, s.seq = oldInit, oldSim, oldSeq }
	check := s.Spec()
	check.Shards = nil
	if rep := verify.Check(check, verify.Options{}); !rep.Clean() {
		restore()
		return 0, fmt.Errorf("pcset: dead-store elimination rejected by verifier: %w", rep.Err())
	}
	seq, err := program.Schedule(s.simProg, int32(s.simProg.NumVars))
	if err != nil {
		restore()
		return 0, fmt.Errorf("pcset: dead-store elimination: %w", err)
	}
	s.seq = seq

	// Vector-batch clones share the old programs; drop them so ApplyStream
	// rebuilds from the stripped ones.
	s.clones = nil
	switch {
	case s.exec != nil:
		if _, err := s.ConfigureExec(shard.Sharded, s.exec.Plan().Workers()); err != nil {
			restore()
			if _, rerr := s.ConfigureExec(shard.Sharded, s.exec.Plan().Workers()); rerr != nil {
				return 0, fmt.Errorf("pcset: dead-store elimination: %w (and restoring the shard plan failed: %v)", err, rerr)
			}
			return 0, fmt.Errorf("pcset: dead-store elimination: %w", err)
		}
	case s.obs != nil:
		s.SetObserver(s.obs) // the observer's shape tracks the program size
	}
	return res.NDead(), nil
}

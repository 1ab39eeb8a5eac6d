package parsim

import (
	"fmt"

	"udsim/internal/dataflow"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// EliminateDeadStores removes the instructions the vector-loop liveness
// fixpoint proves dead — stores whose results can never reach a primary
// output, a final value, or the state the next vector's initialization
// reads — and returns how many were removed. Slot numbering is preserved
// (only the stores go, not the layout), so the field table, the spec and
// Final/Trace addressing stay valid; waveform reads of the eliminated
// intermediate words of non-output nets, however, may return stale bits,
// which is why the facade keeps this behind an explicit option.
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
		return 0, fmt.Errorf("parsim: dead-store elimination rejected by verifier: %w", rep.Err())
	}
	seq, err := program.Schedule(s.simProg, s.scratchStart)
	if err != nil {
		restore()
		return 0, fmt.Errorf("parsim: dead-store elimination: %w", err)
	}
	s.seq = seq // renames no more scratch than before, so the state array still fits

	// Vector-batch clones share the old programs; drop them so ApplyStream
	// rebuilds from the stripped ones.
	s.clones = nil
	switch {
	case s.exec != nil:
		// Re-partition for the stripped program under the strategy that is
		// actually configured (sharded or activity-gated), keeping the
		// worker count and the fusion setting.
		strat, workers := s.execStrategy, s.exec.Plan().Workers()
		if _, err := s.ConfigureExec(strat, workers); err != nil {
			restore()
			if _, rerr := s.ConfigureExec(strat, workers); rerr != nil {
				return 0, fmt.Errorf("parsim: dead-store elimination: %w (and restoring the shard plan failed: %v)", err, rerr)
			}
			return 0, fmt.Errorf("parsim: dead-store elimination: %w", err)
		}
	case s.obs != nil:
		s.SetObserver(s.obs) // the observer's shape tracks the program size
	}
	return res.NDead(), nil
}

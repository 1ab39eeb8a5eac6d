package verify

import (
	"fmt"

	"udsim/internal/dataflow"
	"udsim/internal/program"
)

// StreamOf extracts the dataflow engine's view of a spec: the instruction
// streams plus the boundary metadata the per-vector cycle needs. Exported
// because the simulators reuse it — the dead-store eliminators in parsim
// and pcset run dataflow.Liveness over exactly this stream.
func StreamOf(spec *Spec) *dataflow.Stream {
	return &dataflow.Stream{
		Init:           spec.Init,
		Sim:            spec.Sim,
		ScratchStart:   spec.ScratchStart,
		RuntimeWritten: spec.RuntimeWritten,
		LiveOut:        spec.LiveOut,
	}
}

// segProg maps a dataflow segment to a finding's Prog label.
func segProg(seg dataflow.Segment) string {
	if seg == dataflow.SegInit {
		return "init"
	}
	return "sim"
}

// maxLoopFindings caps V009 findings; one under-covered LiveOut slot
// typically flips a whole cone of stores and the first few localize it.
const maxLoopFindings = 20

// checkLoopLiveness is rule V009: the vector-loop liveness fixpoint must
// agree with the single-pass census of rule V005. The census seeds only
// LiveOut and walks the cycle once; the fixpoint additionally chases
// values around the per-vector back edge (state the next vector's Init
// reads). The two disagree exactly when LiveOut fails to cover a
// cross-vector dependency — the census then calls a store dead whose
// removal would corrupt the next vector. A clean spec lists all such
// state in LiveOut, so agreement is the proof that the dead-store
// eliminator may trust the analysis.
func checkLoopLiveness(spec *Spec, r *Report, censusValid bool) {
	res := dataflow.Liveness(StreamOf(spec))
	r.Stats.LiveInSlots = res.LiveIn.Count()
	r.Stats.LivenessPasses = res.Passes
	if !censusValid {
		return // V005 disabled: no census to compare against
	}

	count := 0
	emit := func(prog string, i int, slot int32, msg string) {
		if count < maxLoopFindings {
			r.add(Finding{Rule: RuleLoopLive, Severity: SevError, Prog: prog, Instr: i, Slot: slot, Msg: msg})
		}
		count++
	}
	compare := func(prog string, code []program.Instr, census []int, fixpoint []bool) {
		inCensus := make(map[int]bool, len(census))
		for _, i := range census {
			inCensus[i] = true
		}
		for i, dead := range fixpoint {
			slot := code[i].Dst
			switch {
			case dead && !inCensus[i]:
				// Fixpoint live-sets only grow over the census's, so this
				// direction is an engine self-check, not a spec problem.
				emit(prog, i, slot, fmt.Sprintf(
					"liveness fixpoint marks this store dead but the census keeps %s live", slotName(spec, slot)))
			case !dead && inCensus[i]:
				emit(prog, i, slot, fmt.Sprintf(
					"census calls this store dead, but the vector loop proves %s feeds the next vector's init — LiveOut omits a cross-vector dependency", slotName(spec, slot)))
			}
		}
	}
	compare("sim", spec.Sim.Code, r.Stats.DeadSim, res.DeadSim)
	if spec.Init != nil {
		compare("init", spec.Init.Code, r.Stats.DeadInit, res.DeadInit)
	}
	if count > maxLoopFindings {
		r.add(Finding{Rule: RuleLoopLive, Severity: SevError, Prog: "sim", Instr: -1, Slot: -1,
			Msg: fmt.Sprintf("%d further liveness disagreements suppressed", count-maxLoopFindings)})
	}
}

// checkIntervals is rule V011: the possibly-set bit-interval analysis
// must prove every accumulating write into a persistent word merges bits
// the word does not hold yet. This is the bit-level complement of rule
// V002: OR-accumulation is a legal second write at the word level, so the
// single-assignment rule cannot see two time phases landing on one bit —
// the interval lattice can.
func checkIntervals(spec *Spec, r *Report) {
	for _, f := range dataflow.Intervals(StreamOf(spec)) {
		r.add(Finding{Rule: RuleInterval, Severity: SevError, Prog: segProg(f.Seg), Instr: f.Index, Slot: f.Slot,
			Msg: f.Msg()})
	}
}

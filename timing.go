package udsim

import (
	"fmt"

	"udsim/internal/ndsim"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/scoap"
)

// --- Nominal-delay simulation (the paper's "more accurate timing models"
// future work) -----------------------------------------------------------

// DelayModel assigns an integer delay ≥ 1 to every gate.
type DelayModel = ndsim.DelayModel

// Built-in delay models.
var (
	// UnitDelays is the paper's model: one unit per gate.
	UnitDelays DelayModel = ndsim.UnitDelays
	// FaninDelays grows delay with fanin (1 + fanin/2).
	FaninDelays DelayModel = ndsim.FaninDelays
	// TypeDelays gives single-stage (inverting) gates one unit and
	// two-stage gates two.
	TypeDelays DelayModel = ndsim.TypeDelays
)

// NominalChange is one committed net value change (net, time, value).
type NominalChange = ndsim.Change

// NewNominalDelay builds an event-driven simulator with per-gate delays
// (nil model = unit delays). With unit delays its waveforms coincide
// exactly with the unit-delay engines', which the test suite verifies.
func NewNominalDelay(c *Circuit, dm DelayModel) (*NominalSim, error) {
	s, err := ndsim.New(c, dm)
	if err != nil {
		return nil, err
	}
	return &NominalSim{s: s}, nil
}

// NominalSim is the nominal-delay event-driven simulator.
type NominalSim struct{ s *ndsim.Sim }

// Circuit returns the (normalized) circuit.
func (n *NominalSim) Circuit() *Circuit { return n.s.Circuit() }

// ResetConsistent initializes to the settled state (nil = all zeros).
func (n *NominalSim) ResetConsistent(inputs []bool) error { return n.s.ResetConsistent(inputs) }

// Apply simulates one vector; changes (if non-nil) receives every
// committed net change in time order. Returns the settling time.
func (n *NominalSim) Apply(vec []bool, changes *[]NominalChange) (int, error) {
	return n.s.ApplyVector(vec, changes)
}

// Value returns the current value of a net.
func (n *NominalSim) Value(id NetID) V3 { return n.s.Value(id) }

// Events returns the number of committed net changes so far.
func (n *NominalSim) Events() int64 { return n.s.Events }

// NewNominalPCSet compiles a circuit with the PC-set method generalized
// to nominal per-gate delays — a working realization of the paper's
// closing "more accurate timing models" direction. PC-sets become sets of
// path-delay sums; the generated code stays straight-line, queue-free and
// branch-free; the price is larger PC-sets. The simulator's waveforms
// coincide exactly with NewNominalDelay's (tested). monitor selects the
// fully observable nets (nil = primary outputs); dm nil means unit delays.
func NewNominalPCSet(c *Circuit, monitor []NetID, dm DelayModel) (*PCSetSim, error) {
	norm := c.Normalize()
	var delays []int
	if dm != nil {
		delays = make([]int, norm.NumGates())
		for i := range norm.Gates {
			delays[i] = dm(&norm.Gates[i])
		}
	}
	s, err := pcset.CompileWithDelays(norm, monitor, delays)
	if err != nil {
		return nil, err
	}
	return &PCSetSim{compiled: newCompiled(s, TechPCSet, options{}, nil), s: s}, nil
}

// NewNominalParallel compiles a circuit with the parallel technique
// generalized to nominal per-gate delays: the per-gate shift becomes
// d bits (decomposed into a word offset plus a residual shift when d
// exceeds the word width) and the d low bit positions of each field carry
// previous-vector values. Waveforms coincide exactly with
// NewNominalDelay's (tested). The unit-delay optimizations (trimming,
// shift elimination) do not combine with nominal delays.
func NewNominalParallel(c *Circuit, dm DelayModel, opts ...Option) (*ParallelSim, error) {
	var o options
	for _, f := range opts {
		if f != nil {
			f(&o)
		}
	}
	if o.trim || o.shiftEl != NoShiftElimination {
		return nil, fmt.Errorf("udsim: nominal delays are mutually exclusive with trimming and shift elimination")
	}
	norm := c.Normalize()
	var delays []int
	if dm != nil {
		delays = make([]int, norm.NumGates())
		for i := range norm.Gates {
			delays[i] = dm(&norm.Gates[i])
		}
	}
	s, err := parsim.Compile(norm, parsim.Config{WordBits: o.wordBits, Delays: delays})
	if err != nil {
		return nil, err
	}
	return &ParallelSim{compiled: newCompiled(s, TechParallel, o, nil), s: s}, nil
}

// --- SCOAP testability ----------------------------------------------------

// Testability holds the SCOAP controllability/observability measures.
type Testability = scoap.Analysis

// TestabilityInfinity marks untestable measures.
const TestabilityInfinity = scoap.Infinity

// AnalyzeTestability computes SCOAP CC0/CC1/CO for every net of a
// combinational circuit.
func AnalyzeTestability(c *Circuit) (*Testability, error) { return scoap.Analyze(c) }

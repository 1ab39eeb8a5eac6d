package native

import (
	"math/bits"

	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/parsim"
)

// CoreLayout derives the child layout from a compiled engine: the
// primary-input records the in-process WriteInputs uses (a multi-word
// field with the delayed-alignment split for the parallel technique, one
// broadcast word for the PC-set method) and each primary output's final
// bit.
func CoreLayout(e *engine.Core, c *circuit.Circuit) Layout {
	init, sim := e.Programs()
	l := Layout{
		WordBits: sim.WordBits,
		NumVars:  max(init.NumVars, sim.NumVars),
		Inputs:   append([]InputField(nil), e.Inputs()...),
		Outputs:  make([]OutputBit, len(c.Outputs)),
	}
	for i, id := range c.Outputs {
		slot, mask := e.FinalSlot(id)
		l.Outputs[i] = OutputBit{Slot: int32(slot), Bit: uint8(bits.TrailingZeros64(mask))}
	}
	return l
}

// ParallelLayout is CoreLayout of a compiled parallel simulator.
func ParallelLayout(s *parsim.Sim, c *circuit.Circuit) Layout { return CoreLayout(&s.Core, c) }

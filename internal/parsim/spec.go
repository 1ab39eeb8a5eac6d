package parsim

import (
	"udsim/internal/verify"
)

// Spec builds the static-verification spec for the compiled programs: the
// packed bit-field layout, the scratch boundary, the slots the runtime
// writes between the init and sim phases (primary-input fields), the
// slots that must be correct after sim (primary-output fields plus every
// net's top word, which ApplyVector reads as the previous final value),
// and — for unit-delay compiles — the static phase of every field word.
func (s *Sim) Spec() *verify.Spec {
	W := s.cfg.WordBits
	c := s.Circuit()
	init, sim := s.Programs()
	name := "parallel"
	if s.cfg.Trim {
		name += "+trim"
	}
	if s.cfg.Align != nil {
		name += "+" + string(s.cfg.Align.Method)
	}
	if s.cfg.Delays != nil {
		name += "+delays"
	}
	spec := &verify.Spec{
		Name:         name,
		Init:         init,
		Sim:          sim,
		ScratchStart: s.ScratchStart(),
	}
	for i := range c.Nets {
		spec.Fields = append(spec.Fields, verify.Field{
			Name:      c.Nets[i].Name,
			Base:      s.base[i],
			Words:     s.words[i],
			Align:     s.alignOf[i],
			WidthBits: s.width[i],
		})
	}
	for _, id := range c.Inputs {
		for w := int32(0); w < s.words[id]; w++ {
			spec.RuntimeWritten = append(spec.RuntimeWritten, s.base[id]+w)
		}
	}
	// ApplyVector captures every net's final bit (its top word) before
	// the next vector overwrites the fields, and the primary outputs are
	// externally observable over their full history.
	isOut := make([]bool, c.NumNets())
	for _, id := range c.Outputs {
		isOut[id] = true
		for w := int32(0); w < s.words[id]; w++ {
			spec.LiveOut = append(spec.LiveOut, s.base[id]+w)
		}
	}
	for i := range c.Nets {
		if !isOut[i] && s.words[i] > 0 {
			spec.LiveOut = append(spec.LiveOut, s.base[i]+s.words[i]-1)
		}
	}
	// Phases only describe the unit-delay packing (bit i of word w holds
	// time align + w*W + i); nominal-delay compiles shift by d bits per
	// gate, which the phase rule's one-delay model does not cover.
	if s.cfg.Delays == nil {
		phase := make([]int, sim.NumVars)
		for i := range phase {
			phase[i] = verify.NoPhase
		}
		for i := range c.Nets {
			for w := int32(0); w < s.words[i]; w++ {
				phase[s.base[i]+w] = s.alignOf[i] + int(w)*W
			}
		}
		spec.Phase = phase
	}
	return spec
}

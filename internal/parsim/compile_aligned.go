package parsim

import (
	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/program"
)

// compileAligned builds the shift-eliminated parallel-technique program
// (§4). Each net's field has its own alignment and width
// (level − alignment + 1); gate results are computed directly at the
// output net's alignment, so shifts appear only where an input's
// alignment differs from (output alignment − 1), materialized as shifted
// copies at the gate inputs (Fig. 18). The path-tracing algorithm yields
// only right shifts; cycle-breaking can also produce left shifts, whose
// underflow bits replicate the input's bit 0 (the previous-vector value,
// guaranteed present because such nets are aligned strictly below their
// minlevel).
//
// With cfg.Trim, words without PC-set representatives are not computed:
// low-order representative-free words are refilled from the previous
// final value in the init phase (the paper's "reintroduced
// initialization"), and higher gaps broadcast the previous word's top bit.
func (s *Sim) compileAligned(p *engine.Parts) error {
	a := p.Analysis
	W := s.cfg.WordBits
	c := p.Circuit
	al := s.cfg.Align

	next := int32(0)
	for i := range c.Nets {
		s.alignOf[i] = al.Net[i]
		s.width[i] = a.NetLevel[i] - al.Net[i] + 1
		nw := (s.width[i] + W - 1) / W
		s.base[i] = next
		s.words[i] = int32(nw)
		next += int32(nw)
	}
	fieldEnd := next
	p.ScratchStart = fieldEnd

	var nb program.NameBuilder
	for i := range c.Nets {
		for w := 0; w < int(s.words[i]); w++ {
			nb.Add(c.Nets[i].Name, ".", w)
		}
	}

	pcIn := func(net circuit.NetID, lo, hi int) bool {
		for _, t := range a.NetPC[net] {
			if t > hi {
				return false
			}
			if t >= lo {
				return true
			}
		}
		return false
	}
	// A word is computed when it contains a representative; with
	// trimming off, every word is computed.
	computed := func(net circuit.NetID, w int) bool {
		if !s.cfg.Trim {
			return true
		}
		off := s.alignOf[net]
		return pcIn(net, off+w*W, off+w*W+W-1)
	}

	// Scratch allocator: a region after the fields, reset per gate, with
	// a high-water mark determining the final variable count.
	scratch := fieldEnd
	maxScratch := fieldEnd
	allocScratch := func() int32 {
		v := scratch
		scratch++
		if scratch > maxScratch {
			maxScratch = scratch
		}
		return v
	}

	var simCode []program.Instr

	// srcWords materializes the field of input net `in`, shifted so that
	// bit i corresponds to time (outAlign−1)+i, covering words 0..nwOut−1.
	// It returns one state index per word. Shift-free full-width inputs
	// are referenced in place; everything else lands in scratch.
	srcWords := func(in circuit.NetID, outAlign, nwOut int) []int32 {
		k := (outAlign - 1) - s.alignOf[in]
		nwIn := int(s.words[in])
		outWords := make([]int32, nwOut)

		var fillTop, fillBot int32 = program.None, program.None
		topWord := func() int32 {
			if fillTop == program.None {
				fillTop = allocScratch()
				simCode = append(simCode, program.Instr{
					Op: program.OpFill, Dst: fillTop, A: s.fieldWord(in, nwIn-1),
					B: program.None, Sh: uint8(W - 1),
				})
			}
			return fillTop
		}
		botWord := func() int32 {
			if fillBot == program.None {
				fillBot = allocScratch()
				simCode = append(simCode, program.Instr{
					Op: program.OpFill, Dst: fillBot, A: s.fieldWord(in, 0),
					B: program.None, Sh: 0,
				})
			}
			return fillBot
		}
		// word(x) resolves input word index x with saturation on both
		// ends.
		word := func(x int) int32 {
			switch {
			case x < 0:
				return botWord()
			case x >= nwIn:
				return topWord()
			default:
				return s.fieldWord(in, x)
			}
		}

		switch {
		case k == 0:
			for w := 0; w < nwOut; w++ {
				outWords[w] = word(w)
			}
		case k > 0: // right shift by k
			o, r := k/W, k%W
			for w := 0; w < nwOut; w++ {
				if r == 0 {
					outWords[w] = word(w + o)
					continue
				}
				lo, hi := w+o, w+o+1
				if lo >= nwIn {
					outWords[w] = topWord()
					continue
				}
				dst := allocScratch()
				simCode = append(simCode, program.Instr{
					Op: program.OpShrMove, Dst: dst, A: word(lo), B: word(hi), Sh: uint8(r),
				})
				outWords[w] = dst
			}
		default: // k < 0: left shift by −k
			m := -k
			o, r := m/W, m%W
			for w := 0; w < nwOut; w++ {
				if r == 0 {
					outWords[w] = word(w - o)
					continue
				}
				hi, lo := w-o, w-o-1
				if hi < 0 {
					outWords[w] = botWord()
					continue
				}
				dst := allocScratch()
				simCode = append(simCode, program.Instr{
					Op: program.OpShlMove, Dst: dst, A: word(hi), B: word(lo), Sh: uint8(r),
				})
				outWords[w] = dst
			}
		}
		return outWords
	}

	// ---- Simulation program: levelized order, full recompute. ----
	for _, gid := range a.LevelOrder {
		g := c.Gate(gid)
		out := g.Output
		nwOut := int(s.words[out])
		outAlign := s.alignOf[out]
		scratch = fieldEnd // reset per gate

		ins := make([][]int32, len(g.Inputs))
		for j, in := range g.Inputs {
			ins[j] = srcWords(in, outAlign, nwOut)
		}
		srcs := make([]int32, len(g.Inputs))
		for w := 0; w < nwOut; w++ {
			if !computed(out, w) {
				if w == 0 {
					continue // refilled in the init phase
				}
				simCode = append(simCode, program.Instr{
					Op: program.OpFill, Dst: s.fieldWord(out, w),
					A: s.fieldWord(out, w-1), B: program.None, Sh: uint8(W - 1),
				})
				continue
			}
			for j := range ins {
				srcs[j] = ins[j][w]
			}
			simCode = program.EmitGateEval(simCode, g.Type, s.fieldWord(out, w), srcs)
		}
	}

	// ---- Init program: only trimming's reintroduced low-word fills. ----
	var initCode []program.Instr
	if s.cfg.Trim {
		for i := range c.Nets {
			net := circuit.NetID(i)
			if c.Nets[i].IsInput || computed(net, 0) {
				continue
			}
			top := s.fieldWord(net, int(s.words[i])-1)
			initCode = append(initCode, program.Instr{
				Op: program.OpFill, Dst: s.fieldWord(net, 0), A: top,
				B: program.None, Sh: uint8(W - 1),
			})
		}
	}

	numVars := int(maxScratch)
	for nb.Len() < numVars {
		nb.Add("s", "", nb.Len())
	}
	names := nb.Names()
	p.Init = &program.Program{WordBits: W, NumVars: numVars, Code: initCode, VarNames: names}
	p.Sim = &program.Program{WordBits: W, NumVars: numVars, Code: simCode, VarNames: names}
	return nil
}

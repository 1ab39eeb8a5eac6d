// Package parsim implements the parallel technique of compiled unit-delay
// simulation (§3 of the paper) together with both of its optimizations:
// bit-field trimming and shift elimination (§4).
//
// Every net owns a bit-field in which bit i holds the net's value at time
// alignment+i (alignment is 0 for the unoptimized technique). Gate
// simulations are bit-parallel word operations; the unit gate delay is a
// one-bit left shift ORed into the output field (Fig. 5). Multi-word
// fields replicate the gate simulation per word and carry bits across
// word boundaries (Fig. 8). Trimming skips words without PC-set
// representatives (Fig. 9); shift elimination assigns per-net alignments
// (package align) and moves any remaining shifts to gate inputs (Fig. 18).
//
// The logical word width defaults to the paper's 32 bits and is
// configurable down to 8 bits so that tests can exercise many-word fields
// on small circuits.
package parsim

import (
	"context"
	"fmt"
	"math/bits"

	"udsim/internal/align"
	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/levelize"
	"udsim/internal/verify"
)

// Config selects the compilation variant.
type Config struct {
	// WordBits is the logical word width W (8, 16, 32 or 64). Zero means
	// the paper's 32.
	WordBits int
	// Trim enables bit-field trimming (§4, Figs. 9 and 20).
	Trim bool
	// Align supplies per-net alignments from a shift-elimination
	// algorithm; nil compiles the classic zero-aligned layout.
	Align *align.Result
	// Delays supplies nominal per-gate delays (indexed by GateID of the
	// normalized circuit; nil = the paper's unit delays). The technique
	// generalizes directly — the per-gate shift becomes d bits instead
	// of one and the d low bit positions carry previous-vector values —
	// but the optimizations are unit-delay constructions, so Delays is
	// mutually exclusive with Trim and Align.
	Delays []int
	// Verify runs the static analyzer (package verify) over the compiled
	// programs and fails the compile on any warning or error finding.
	Verify bool
}

// Sim is a compiled parallel-technique simulator. The runtime —
// execution strategies, guarded paths, checkpoints, observability and
// dead-store elimination — is the embedded engine.Core; Sim adds the
// bit-field layout, the per-vector apply and activity gating.
type Sim struct {
	engine.Core
	cfg Config

	base    []int32 // per net: state index of field word 0
	words   []int32 // per net: words in the field
	alignOf []int   // per net: alignment (all zero when cfg.Align == nil)
	width   []int   // per net: valid field width in bits

	// Activity gating (gate.go): non-nil exactly when the configured
	// strategy is shard.ActivityGated.
	gate *gater
}

// Compile builds the parallel-technique program for a combinational
// circuit under the given configuration. Wired nets are normalized away
// first. When cfg.Align is provided it must have been computed for the
// same normalized circuit (use Analyze/align on sim.Circuit() of a prior
// Compile, or normalize the circuit first).
func Compile(c *circuit.Circuit, cfg Config) (*Sim, error) {
	if !c.Combinational() {
		return nil, fmt.Errorf("parsim: circuit %s is sequential; break flip-flops first", c.Name)
	}
	if cfg.WordBits == 0 {
		cfg.WordBits = 32
	}
	switch cfg.WordBits {
	case 8, 16, 32, 64:
	default:
		return nil, fmt.Errorf("parsim: unsupported word width %d", cfg.WordBits)
	}
	norm := c.Normalize()
	if cfg.Delays != nil {
		if cfg.Trim || cfg.Align != nil {
			return nil, fmt.Errorf("parsim: nominal delays are mutually exclusive with trimming and shift elimination")
		}
		if c.HasWiredNets() {
			return nil, fmt.Errorf("parsim: normalize wired nets before supplying per-gate delays")
		}
	}
	var a *levelize.Analysis
	if cfg.Align != nil {
		if cfg.Align.A.C != norm {
			return nil, fmt.Errorf("parsim: alignment was computed for a different circuit; align the normalized circuit")
		}
		if err := cfg.Align.Validate(); err != nil {
			return nil, err
		}
		a = cfg.Align.A
	} else {
		var err error
		a, err = levelize.AnalyzeWithDelays(norm, cfg.Delays)
		if err != nil {
			return nil, err
		}
	}
	s := &Sim{
		cfg:     cfg,
		alignOf: make([]int, norm.NumNets()),
		width:   make([]int, norm.NumNets()),
		base:    make([]int32, norm.NumNets()),
		words:   make([]int32, norm.NumNets()),
	}
	p := engine.Parts{Label: "parallel", Circuit: norm, Analysis: a}
	var err error
	if cfg.Align == nil {
		err = s.compileFlat(&p)
	} else {
		err = s.compileAligned(&p)
	}
	if err != nil {
		return nil, err
	}
	// With shift elimination an input field's bits below -align belong to
	// simulated times before 0 and carry the previous vector's value.
	p.Inputs = make([]engine.InputField, len(norm.Inputs))
	for i, id := range norm.Inputs {
		p.Inputs[i] = engine.InputField{Base: s.base[id], Words: s.words[id], Split: int32(-s.alignOf[id])}
	}
	p.Finals = make([]engine.FinalBit, norm.NumNets())
	for i := range p.Finals {
		idx := s.width[i] - 1
		p.Finals[i] = engine.FinalBit{Slot: s.base[i] + int32(idx/cfg.WordBits), Shift: uint8(idx % cfg.WordBits)}
		// ValueAt reads times before a positive alignment from the
		// previous final; flat and trimmed fields start at time 0.
		if s.alignOf[i] > 0 {
			p.PrevFinalNets = append(p.PrevFinalNets, int32(i))
		}
	}
	if err := s.Setup(s, p); err != nil {
		return nil, err
	}
	if cfg.Verify {
		if err := verify.Check(s.Spec(), verify.Options{}).Err(); err != nil {
			return nil, fmt.Errorf("parsim: %w", err)
		}
	}
	return s, nil
}

// Analyze normalizes a circuit and returns its levelization analysis —
// the input the align package needs. The returned circuit must be the one
// passed to Compile together with an alignment built from the analysis.
func Analyze(c *circuit.Circuit) (*circuit.Circuit, *levelize.Analysis, error) {
	if !c.Combinational() {
		return nil, nil, fmt.Errorf("parsim: circuit %s is sequential; break flip-flops first", c.Name)
	}
	norm := c.Normalize()
	a, err := levelize.Analyze(norm)
	if err != nil {
		return nil, nil, err
	}
	return norm, a, nil
}

// Config returns the compile configuration (with defaults resolved).
func (s *Sim) Config() Config { return s.cfg }

// ShiftCount returns the number of shift instructions in the simulation
// program — the executable counterpart of Fig. 21's retained shifts.
func (s *Sim) ShiftCount() int {
	_, sim := s.Programs()
	return sim.ShiftCount()
}

// WordsPerField returns the maximum number of words any net's bit-field
// occupies (the parenthesized counts of Fig. 20).
func (s *Sim) WordsPerField() int {
	max := int32(0)
	for _, w := range s.words {
		if w > max {
			max = w
		}
	}
	return int(max)
}

// fieldWord returns the state index of word w of a net's field.
func (s *Sim) fieldWord(n circuit.NetID, w int) int32 { return s.base[n] + int32(w) }

// ResetConsistent initializes every bit of every field to the zero-delay
// settled state for the given input assignment (nil = all zeros).
func (s *Sim) ResetConsistent(inputs []bool) error {
	settled, err := s.Settle(inputs)
	if err != nil {
		return err
	}
	mask := s.Mask()
	for i, v := range settled {
		var w uint64
		if v {
			w = mask
		}
		for j := s.base[i]; j < s.base[i]+s.words[i]; j++ {
			s.St[j] = w
		}
	}
	return nil
}

// ApplyVector simulates one input vector, computing the complete
// unit-delay history of every net in its bit-field.
func (s *Sim) ApplyVector(inputs []bool) error { return s.Apply(nil, inputs) }

// Apply is the per-vector body behind ApplyVector and the core's stream
// and guarded paths (engine.Technique); a nil ctx selects the unguarded
// run. It keeps the previous finals ValueAt needs (CaptureFinals) and
// runs the init program, WriteInputs and RunSim. Under activity gating
// the init phase first decides which gate groups the vector can touch
// and which executor runs it (reading PrevPI before WriteInputs
// overwrites it); see gatedInit. A fault leaves the gating invalid, so
// the next vector runs everything.
func (s *Sim) Apply(ctx context.Context, inputs []bool) error {
	if len(inputs) != len(s.Circuit().Inputs) {
		return fmt.Errorf("parsim: %d input values for %d primary inputs", len(inputs), len(s.Circuit().Inputs))
	}
	s.CaptureFinals()
	if s.gate != nil {
		s.gatedInit(inputs)
	} else {
		s.RunInit(1)
	}
	s.WriteInputs(inputs)
	if err := s.RunSim(ctx); err != nil {
		s.gate.invalidate()
		return err
	}
	if s.Observer().ActivityEnabled() {
		s.observeActivity()
	}
	return nil
}

// Fork implements engine.Technique: a shallow copy without the
// configured gating. Use Clone.
func (s *Sim) Fork() engine.Technique {
	n := *s
	n.gate = nil
	return &n
}

// observeActivity scans every net's waveform of the last vector into
// the observer's activity profile: one transition per (net, time) value
// change, per-net toggle totals. A value can change only at the times
// its field holds (before them it is the previous final, after them the
// field's last bit), so the scan compares each field word with itself
// shifted by one time step and visits only the bits that differ.
// Allocation-free; O(nets × words + transitions).
func (s *Sim) observeActivity() {
	s.Flatten()
	o := s.Observer()
	d := s.Depth()
	W := s.cfg.WordBits
	for n := range s.Circuit().Nets {
		align := s.alignOf[n]
		lo := max(align, 1) - align              // first field bit that can differ from the one before
		hi := min(align+s.width[n]-1, d) - align // last field bit a time up to Depth reads
		if lo > hi {
			continue
		}
		var prev uint64 // the value just before the word: time lo-1 for the first word
		if s.ValueAt(circuit.NetID(n), align+lo-1) {
			prev = 1
		}
		var toggles int64
		for w := lo / W; w <= hi/W; w++ {
			x := s.St[s.base[n]+int32(w)]
			first, last := max(lo-w*W, 0), min(hi-w*W, W-1)
			diff := (x ^ (x<<1 | prev)) & (^uint64(0) << uint(first)) & (^uint64(0) >> uint(63-last))
			prev = x >> uint(W-1) & 1
			for ; diff != 0; diff &= diff - 1 {
				o.AddTransition(align + w*W + bits.TrailingZeros64(diff))
				toggles++
			}
		}
		if toggles > 0 {
			o.AddNetToggles(n, toggles)
		}
	}
	o.AddActivityVector()
}

// ValueAt returns the value of a net at time t (0..Depth) for the last
// applied vector. Times before the field's alignment resolve to the
// previous vector's final value; times beyond the net's level hold the
// final value. Under activity gating it first has any deferred
// flattening done.
func (s *Sim) ValueAt(n circuit.NetID, t int) bool {
	if g := s.gate; g != nil && g.pending {
		s.Flatten()
	}
	idx := t - s.alignOf[n]
	if idx < 0 {
		return s.PrevFinal[n]
	}
	if idx >= s.width[n] {
		idx = s.width[n] - 1
	}
	w, b := idx/s.cfg.WordBits, idx%s.cfg.WordBits
	return s.St[s.base[n]+int32(w)]>>uint(b)&1 == 1
}

// Trace implements the facade's Tracer contract: the value of net n at
// time t and whether that value is observable. The parallel technique
// retains every net's complete waveform, so every time 0..Depth (and
// beyond, clamped to the final value) is observable; negative times are
// not — they belong to the previous vector.
func (s *Sim) Trace(n circuit.NetID, t int) (bool, bool) {
	if t < 0 {
		return false, false
	}
	return s.ValueAt(n, t), true
}

// History returns the full waveform of one net over times 0..Depth.
func (s *Sim) History(n circuit.NetID) []bool {
	h := make([]bool, s.Depth()+1)
	for t := range h {
		h[t] = s.ValueAt(n, t)
	}
	return h
}

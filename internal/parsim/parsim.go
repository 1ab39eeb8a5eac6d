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
	"time"

	"udsim/internal/align"
	"udsim/internal/circuit"
	"udsim/internal/levelize"
	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/refsim"
	"udsim/internal/resilience"
	"udsim/internal/shard"
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

// Sim is a compiled parallel-technique simulator.
type Sim struct {
	c   *circuit.Circuit
	a   *levelize.Analysis
	cfg Config

	initProg *program.Program
	simProg  *program.Program
	seq      *program.Sequential // simProg's sequential execution form

	st []uint64

	base    []int32  // per net: state index of field word 0
	words   []int32  // per net: words in the field
	alignOf []int    // per net: alignment (all zero when cfg.Align == nil)
	width   []int    // per net: valid field width in bits
	final   []bitPos // per net: where its final bit (time Depth) lives

	scratchStart int32 // first non-field (temporary/scratch) state slot

	prevFinal []bool // final values before the last vector (for t < alignment reads)
	prevPI    []bool // previous primary-input values (for negative-alignment PI bits)
	piBuf     []uint64

	// Multicore execution (ConfigureExec): a sharded engine, or a worker
	// pool plus clones for vector batching; nil/Sequential by default.
	exec         *shard.Engine
	pool         *shard.Pool
	clones       []*Sim
	execStrategy shard.Strategy

	// Activity gating (gate.go): non-nil exactly when execStrategy is
	// shard.ActivityGated. fuseLevels makes ConfigureExec build plans
	// with the barrier-deleting level-fusion pass (SetLevelFusion).
	gate       *gater
	fuseLevels bool

	// Runtime observability (SetObserver); nil = disabled, and every
	// hot-path hook is behind a nil check. Clones share the pointer, so
	// vector-batch blocks feed one set of counters.
	obs *obs.Observer

	ref       *refsim.Evaluator // lazily built zero-delay oracle for ResetConsistent
	zeroInput []bool            // the all-zeros assignment ResetConsistent(nil) settles

	// Guarded execution (guard.go): fault injector and watchdog budgets
	// forwarded to the sharded engine, consulted only on the ctx paths.
	inj         resilience.Injector
	levelBudget time.Duration
	guardGrace  time.Duration
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
		c:         norm,
		a:         a,
		cfg:       cfg,
		alignOf:   make([]int, norm.NumNets()),
		width:     make([]int, norm.NumNets()),
		base:      make([]int32, norm.NumNets()),
		words:     make([]int32, norm.NumNets()),
		prevFinal: make([]bool, norm.NumNets()),
		prevPI:    make([]bool, len(norm.Inputs)),
	}
	var err error
	if cfg.Align == nil {
		err = s.compileFlat()
	} else {
		err = s.compileAligned()
	}
	if err != nil {
		return nil, err
	}
	if err := s.initProg.Validate(); err != nil {
		return nil, fmt.Errorf("parsim: init program invalid: %w", err)
	}
	if err := s.simProg.Validate(); err != nil {
		return nil, fmt.Errorf("parsim: sim program invalid: %w", err)
	}
	if cfg.Verify {
		if err := verify.Check(s.Spec(), verify.Options{}).Err(); err != nil {
			return nil, fmt.Errorf("parsim: %w", err)
		}
	}
	if s.seq, err = program.Schedule(s.simProg, s.scratchStart); err != nil {
		return nil, fmt.Errorf("parsim: %w", err)
	}
	s.final = make([]bitPos, norm.NumNets())
	for i := range s.final {
		idx := s.width[i] - 1
		s.final[i] = bitPos{slot: s.base[i] + int32(idx/cfg.WordBits), shift: uint8(idx % cfg.WordBits)}
	}
	s.st = make([]uint64, s.seq.NumVars())
	s.piBuf = make([]uint64, 0, 8)
	return s, nil
}

// bitPos locates one bit of the state array.
type bitPos struct {
	slot  int32
	shift uint8
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

// Circuit returns the (normalized) circuit being simulated.
func (s *Sim) Circuit() *circuit.Circuit { return s.c }

// Analysis returns the levelization analysis used by the compiler.
func (s *Sim) Analysis() *levelize.Analysis { return s.a }

// Config returns the compile configuration (with defaults resolved).
func (s *Sim) Config() Config { return s.cfg }

// Programs returns the per-vector initialization and simulation programs.
func (s *Sim) Programs() (init, sim *program.Program) { return s.initProg, s.simProg }

// Depth returns the circuit depth in gate delays.
func (s *Sim) Depth() int { return s.a.Depth }

// CodeSize returns the total number of generated instructions.
func (s *Sim) CodeSize() int { return len(s.initProg.Code) + len(s.simProg.Code) }

// Sequential returns the simulation program's sequential execution form:
// the code sequential execution runs (see program.Schedule).
func (s *Sim) Sequential() *program.Sequential { return s.seq }

// CodeBytes returns the memory held by the compiled code: both programs
// and the sequential execution form.
func (s *Sim) CodeBytes() int64 { return s.initProg.Bytes() + s.simProg.Bytes() + s.seq.Bytes() }

// ShiftCount returns the number of shift instructions in the simulation
// program — the executable counterpart of Fig. 21's retained shifts.
func (s *Sim) ShiftCount() int { return s.simProg.ShiftCount() }

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
	if inputs == nil {
		if s.zeroInput == nil {
			s.zeroInput = make([]bool, len(s.c.Inputs))
		}
		inputs = s.zeroInput
	}
	if s.ref == nil {
		var err error
		if s.ref, err = refsim.NewEvaluator(s.c); err != nil {
			return err
		}
	}
	settled, err := s.ref.Evaluate(inputs)
	if err != nil {
		return err
	}
	mask := s.simProg.Mask()
	for i := range s.c.Nets {
		var w uint64
		if settled[i] {
			w = mask
		}
		for j := int32(0); j < s.words[i]; j++ {
			s.st[s.base[i]+j] = w
		}
		s.prevFinal[i] = settled[i]
	}
	for i, id := range s.c.Inputs {
		s.prevPI[i] = settled[id]
	}
	s.gate.invalidate()
	return nil
}

// ApplyVector simulates one input vector, computing the complete
// unit-delay history of every net in its bit-field.
func (s *Sim) ApplyVector(inputs []bool) error { return s.apply(nil, inputs) }

// apply is the shared ApplyVector body; a nil ctx selects the unguarded
// hot path (runSim), a non-nil ctx the guarded one (runSimCtx, see
// guard.go).
func (s *Sim) apply(ctx context.Context, inputs []bool) error {
	if len(inputs) != len(s.c.Inputs) {
		return fmt.Errorf("parsim: %d input values for %d primary inputs", len(inputs), len(s.c.Inputs))
	}
	// Capture the previous finals before anything is overwritten, for
	// every net: gating's flattenInactive reads them all.
	for i, f := range s.final {
		s.prevFinal[i] = s.st[f.slot]>>f.shift&1 == 1
	}
	if s.gate != nil {
		return s.applyGated(ctx, inputs)
	}
	if o := s.obs; o != nil {
		o.AddVectors(1)
		t0 := time.Now()
		s.initProg.Run(s.st)
		o.AddInit(time.Since(t0))
	} else {
		s.initProg.Run(s.st)
	}
	s.writeInputs(inputs)
	if ctx == nil {
		s.runSim()
	} else if err := s.runSimCtx(ctx); err != nil {
		return err
	}
	if s.obs.ActivityEnabled() {
		s.observeActivity()
	}
	return nil
}

// applyGated is the activity-gated apply tail: decide which gate groups
// this vector can touch (reading prevPI before writeInputs overwrites
// it), run the init program minus the skipped nets, flatten the skipped
// fields to their settled broadcasts and hand the engine its gates.
func (s *Sim) applyGated(ctx context.Context, inputs []bool) error {
	g := s.gate
	o := s.obs
	if o != nil {
		o.AddVectors(1)
		t0 := time.Now()
		skipped := g.decide(inputs, s.prevPI)
		o.AddGatingNanos(time.Since(t0))
		o.AddShardsSkipped(skipped)
		t1 := time.Now()
		s.runGatedInit()
		o.AddInit(time.Since(t1))
	} else {
		g.decide(inputs, s.prevPI)
		s.runGatedInit()
	}
	s.writeInputs(inputs)
	s.flattenInactive()
	if ctx == nil {
		s.runSim()
	} else if err := s.runSimCtx(ctx); err != nil {
		return err
	}
	if s.obs.ActivityEnabled() {
		s.observeActivity()
	}
	return nil
}

// writeInputs broadcasts the vector into the primary-input fields. With
// shift elimination a field's bits below -align belong to simulated
// times before 0 and carry the previous vector's value.
func (s *Sim) writeInputs(inputs []bool) {
	mask := s.simProg.Mask()
	W := s.cfg.WordBits
	for i, id := range s.c.Inputs {
		var newW uint64
		if inputs[i] {
			newW = mask
		}
		split := -s.alignOf[id] // bits below split hold the previous value
		if split <= 0 {
			for w := int32(0); w < s.words[id]; w++ {
				s.st[s.base[id]+w] = newW
			}
		} else {
			var prevW uint64
			if s.prevPI[i] {
				prevW = mask
			}
			for w := int32(0); w < s.words[id]; w++ {
				lo := int(w) * W
				switch {
				case lo+W <= split:
					s.st[s.base[id]+w] = prevW
				case lo >= split:
					s.st[s.base[id]+w] = newW
				default:
					pm := (uint64(1) << uint(split-lo)) - 1
					s.st[s.base[id]+w] = (prevW & pm) | (newW &^ pm)
				}
			}
		}
		s.prevPI[i] = inputs[i]
	}
}

// observeActivity scans every net's waveform of the last vector into
// the observer's activity profile: one transition per (net, time) value
// change, per-net toggle totals. Allocation-free; O(nets × depth).
func (s *Sim) observeActivity() {
	o := s.obs
	d := s.a.Depth
	for n := range s.c.Nets {
		id := circuit.NetID(n)
		prev := s.ValueAt(id, 0)
		var toggles int64
		for t := 1; t <= d; t++ {
			v := s.ValueAt(id, t)
			if v != prev {
				o.AddTransition(t)
				toggles++
			}
			prev = v
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
// final value.
func (s *Sim) ValueAt(n circuit.NetID, t int) bool {
	idx := t - s.alignOf[n]
	if idx < 0 {
		return s.prevFinal[n]
	}
	if idx >= s.width[n] {
		idx = s.width[n] - 1
	}
	w, b := idx/s.cfg.WordBits, idx%s.cfg.WordBits
	return s.st[s.base[n]+int32(w)]>>uint(b)&1 == 1
}

// Final returns the final value of a net (its value at time Depth).
func (s *Sim) Final(n circuit.NetID) bool {
	f := s.final[n]
	return s.st[f.slot]>>f.shift&1 == 1
}

// History returns the full waveform of one net over times 0..Depth.
func (s *Sim) History(n circuit.NetID) []bool {
	h := make([]bool, s.a.Depth+1)
	for t := range h {
		h[t] = s.ValueAt(n, t)
	}
	return h
}

// Package pcset implements the PC-set method of compiled unit-delay
// simulation (§2 of the paper).
//
// The compiler allocates one variable per element of every net's PC-set,
// performs zero-insertion for nets that must retain their previous-vector
// values, and generates one straight-line gate simulation per element of
// each gate's PC-set, selecting operands by the largest-PC-element-
// strictly-below rule (Fig. 4). The code executes once per input vector
// and produces the complete unit-delay history of the vector.
//
// Because every variable is a machine word of independent bit lanes, the
// generated code is amenable to data-parallel simulation of up to 64 input
// vectors at once (§3 notes this as the PC-set method's advantage over the
// parallel technique); ApplyLanes exposes that mode.
package pcset

import (
	"context"
	"fmt"

	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/levelize"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// Sim is a compiled PC-set unit-delay simulator. The runtime —
// execution strategies, guarded paths, checkpoints, observability and
// dead-store elimination — is the embedded engine.Core; Sim adds the
// per-PC-element variable layout, the per-vector apply and the 64-lane
// data-parallel mode.
type Sim struct {
	engine.Core

	vars    [][]int32       // per net: state index per PC element, parallel to a.NetPC
	monitor []circuit.NetID // resolved monitor set (PRINT-gate inputs)
}

// Compile builds the PC-set program for a combinational circuit. The
// monitor set determines which nets receive zero-insertion as inputs of
// the implicit PRINT gate and are therefore observable at every time step;
// nil monitors the primary outputs. Wired nets are normalized away first.
func Compile(c *circuit.Circuit, monitor []circuit.NetID) (*Sim, error) {
	return CompileWithDelays(c, monitor, nil)
}

// CompileWithDelays generalizes the PC-set method to nominal integer gate
// delays — the paper's closing "more accurate timing models" direction.
// PC-sets become sets of path-delay sums (levelize.AnalyzeWithDelays) and
// each gate simulation at potential-change time t reads its operands at
// time t−d(g); everything else, including zero-insertion and the
// straight-line structure, carries over unchanged. gateDelay is indexed
// by GateID of the NORMALIZED circuit (resolution gates introduced for
// wired nets would need delays too, so circuits with wired nets must be
// normalized by the caller first when delays are supplied); nil means
// unit delays. Note that the generated code remains branch-free and
// queue-free: nominal delay costs only larger PC-sets.
func CompileWithDelays(c *circuit.Circuit, monitor []circuit.NetID, gateDelay []int) (*Sim, error) {
	if !c.Combinational() {
		return nil, fmt.Errorf("pcset: circuit %s is sequential; break flip-flops first", c.Name)
	}
	if gateDelay != nil && c.HasWiredNets() {
		return nil, fmt.Errorf("pcset: normalize wired nets before supplying per-gate delays")
	}
	c = c.Normalize()
	a, err := levelize.AnalyzeWithDelays(c, gateDelay)
	if err != nil {
		return nil, err
	}
	if monitor == nil {
		monitor = c.Outputs
	}
	a.InsertZeros(monitor)

	// Allocate one variable per PC element of every net, numbered in net
	// order and named net_time.
	total := 0
	for i := range c.Nets {
		total += len(a.NetPC[i])
	}
	vars := make([][]int32, c.NumNets())
	slots := make([]int32, total)
	var nb program.NameBuilder
	next := int32(0)
	for i := range c.Nets {
		pc := a.NetPC[i]
		vs := slots[next : int(next)+len(pc) : int(next)+len(pc)]
		for j, t := range pc {
			vs[j] = next
			nb.Add(c.Nets[i].Name, "_", t)
			next++
		}
		vars[i] = vs
	}
	names := nb.Names()

	// Initialization code: for every net with an inserted zero, move the
	// final value (the variable of the maximum PC element) into the
	// time-zero variable (Fig. 4: "D_0 = D_1;").
	var initCode []program.Instr
	for i := range c.Nets {
		if !a.ZeroAdded[i] {
			continue
		}
		vs := vars[i]
		initCode = append(initCode, program.Instr{
			Op: program.OpMove, Dst: vs[0], A: vs[len(vs)-1], B: program.None,
		})
	}

	// Simulation code: gates in levelized order, one simulation per gate
	// PC element, operands selected by the strictly-below rule.
	evals := 0
	for _, gid := range a.LevelOrder {
		evals += len(a.GatePC[gid])
	}
	simCode := make([]program.Instr, 0, evals)
	srcs := make([]int32, 0, 8)
	for _, gid := range a.LevelOrder {
		g := c.Gate(gid)
		out := g.Output
		d := a.GateDelay[gid]
		for _, t := range a.GatePC[gid] {
			dst := varAt(a, vars, out, t)
			srcs = srcs[:0]
			for _, in := range g.Inputs {
				// The output at time t is the gate function of its
				// inputs at time t−d; each input's value then is held
				// by its largest PC element ≤ t−d.
				srcs = append(srcs, vars[in][a.OperandIndex(in, t-d)])
			}
			simCode = program.EmitGateEval(simCode, g.Type, dst, srcs)
		}
	}

	mk := func(code []program.Instr) *program.Program {
		return &program.Program{WordBits: 64, NumVars: int(next), Code: code, VarNames: names}
	}
	// Each primary input is one broadcast word (its single PC element);
	// each net's final value is bit 0 of its maximum PC element.
	inputs := make([]engine.InputField, len(c.Inputs))
	for i, id := range c.Inputs {
		inputs[i] = engine.InputField{Base: vars[id][0], Words: 1}
	}
	finals := make([]engine.FinalBit, c.NumNets())
	for i, vs := range vars {
		finals[i] = engine.FinalBit{Slot: vs[len(vs)-1]}
	}
	s := &Sim{vars: vars, monitor: monitor}
	// Every variable is persistent: the PC-set method has no scratch.
	err = s.Setup(s, engine.Parts{
		Label: "pcset", Circuit: c, Analysis: a,
		Init: mk(initCode), Sim: mk(simCode), ScratchStart: next,
		Inputs: inputs, Finals: finals,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// CompileChecked is Compile followed by the static analyzer (package
// verify); any warning or error finding fails the compile.
func CompileChecked(c *circuit.Circuit, monitor []circuit.NetID) (*Sim, error) {
	s, err := Compile(c, monitor)
	if err != nil {
		return nil, err
	}
	if err := verify.Check(s.Spec(), verify.Options{}).Err(); err != nil {
		return nil, fmt.Errorf("pcset: %w", err)
	}
	return s, nil
}

// Spec builds the static-verification spec for the compiled programs.
// Every variable is persistent state (the PC-set method has no scratch
// region and no packed bit-fields, so the layout and phase rules are
// vacuous); the runtime writes each primary input's time-zero variable,
// and the observable slots are every variable of every monitored net plus
// the final-value variable of every net, which Final and the next
// vector's zero-insertion read.
func (s *Sim) Spec() *verify.Spec {
	init, sim := s.Programs()
	spec := &verify.Spec{
		Name:         "pcset",
		Init:         init,
		Sim:          sim,
		ScratchStart: s.ScratchStart(),
	}
	for _, id := range s.Circuit().Inputs {
		spec.RuntimeWritten = append(spec.RuntimeWritten, s.vars[id][0])
	}
	for _, id := range s.monitor {
		spec.LiveOut = append(spec.LiveOut, s.vars[id]...)
	}
	for _, vs := range s.vars {
		if len(vs) > 0 {
			spec.LiveOut = append(spec.LiveOut, vs[len(vs)-1])
		}
	}
	// When a sharded engine is configured, export its static plan so rule
	// V012 checks the partition against the sequential dataflow.
	if plan := s.ExecPlan(); plan != nil {
		spec.Shards = plan.Assignment()
	}
	return spec
}

// varAt returns the state index of net's variable for PC element t,
// panicking if t is not in the net's PC-set (a compiler invariant).
func varAt(a *levelize.Analysis, vars [][]int32, net circuit.NetID, t int) int32 {
	pc := a.NetPC[net]
	lo, hi := 0, len(pc)
	for lo < hi {
		mid := (lo + hi) / 2
		if pc[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pc) || pc[lo] != t {
		panic(fmt.Sprintf("pcset: time %d not in PC-set %v of net %d", t, pc, net))
	}
	return vars[net][lo]
}

// NumVars returns the number of generated variables (the paper's measure
// of the PC-set method's space cost).
func (s *Sim) NumVars() int {
	_, sim := s.Programs()
	return sim.NumVars
}

// ResetConsistent initializes every variable of every net to the settled
// zero-delay state for the given input assignment (nil = all zeros), in
// all lanes.
func (s *Sim) ResetConsistent(inputs []bool) error {
	settled, err := s.Settle(inputs)
	if err != nil {
		return err
	}
	for i, v := range settled {
		var w uint64
		if v {
			w = ^uint64(0)
		}
		for _, x := range s.vars[i] {
			s.St[x] = w
		}
	}
	return nil
}

// ApplyVector simulates one input vector, producing the complete history
// in the net variables. All 64 lanes carry the same vector.
func (s *Sim) ApplyVector(inputs []bool) error { return s.Apply(nil, inputs) }

// Apply is the per-vector body behind ApplyVector and the core's stream
// and guarded paths (engine.Technique); a nil ctx selects the unguarded
// run.
func (s *Sim) Apply(ctx context.Context, inputs []bool) error {
	if len(inputs) != len(s.Circuit().Inputs) {
		return fmt.Errorf("pcset: %d input values for %d primary inputs", len(inputs), len(s.Circuit().Inputs))
	}
	s.RunInit(1)
	s.WriteInputs(inputs)
	if err := s.RunSim(ctx); err != nil {
		return err
	}
	if s.Observer().ActivityEnabled() {
		s.observeActivity()
	}
	return nil
}

// Fork implements engine.Technique: a shallow copy. Use Clone.
func (s *Sim) Fork() engine.Technique {
	n := *s
	return &n
}

// observeActivity scans lane 0 of every net's history into the
// observer's activity profile. A net's value only changes at its PC
// elements, so the scan compares consecutive PC variables instead of
// stepping time — O(total PC-set size) per vector, allocation-free.
// Unmonitored nets (no zero inserted) have no observable time-zero
// value, so a change from the previous vector's final into the first PC
// element is not counted — activity is profiled under the engine's own
// observability, exactly like ValueAt. Monitor every net to make the
// profile complete.
func (s *Sim) observeActivity() {
	o := s.Observer()
	pcs := s.Analysis().NetPC
	for n, vs := range s.vars {
		pc := pcs[n]
		var toggles int64
		for j := 1; j < len(vs); j++ {
			if (s.St[vs[j]]^s.St[vs[j-1]])&1 != 0 {
				o.AddTransition(pc[j])
				toggles++
			}
		}
		if toggles > 0 {
			o.AddNetToggles(n, toggles)
		}
	}
	o.AddActivityVector()
}

// ApplyLanes simulates up to 64 independent input vectors at once:
// packed[i] carries one bit per vector for primary input i. Lane k of
// every variable then holds the history of vector k. Note that lanes are
// independent *streams*: each lane's previous-vector state is that lane's
// own previous vector.
func (s *Sim) ApplyLanes(packed []uint64) error {
	if len(packed) != len(s.Circuit().Inputs) {
		return fmt.Errorf("pcset: %d packed inputs for %d primary inputs", len(packed), len(s.Circuit().Inputs))
	}
	s.RunInit(64)
	for i, f := range s.Inputs() {
		s.St[f.Base] = packed[i]
	}
	s.RunSim(nil)
	if s.Observer().ActivityEnabled() {
		s.observeActivity() // lane 0 only; the other 63 lanes are not scanned
	}
	return nil
}

// ValueAt returns the lane-0 value of a net at time t (0..Depth) for the
// last applied vector. The second result is false when the value is not
// observable, i.e. t precedes the net's first PC element and the net had
// no zero inserted (it was not monitored).
func (s *Sim) ValueAt(id circuit.NetID, t int) (bool, bool) {
	v, ok := s.laneValueAt(id, t, 0)
	return v, ok
}

// LaneValueAt is ValueAt for a specific lane.
func (s *Sim) LaneValueAt(id circuit.NetID, t, lane int) (bool, bool) {
	return s.laneValueAt(id, t, lane)
}

func (s *Sim) laneValueAt(id circuit.NetID, t, lane int) (bool, bool) {
	pc := s.Analysis().NetPC[id]
	// Largest element ≤ t.
	lo, hi := 0, len(pc)
	for lo < hi {
		mid := (lo + hi) / 2
		if pc[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return false, false
	}
	return s.St[s.vars[id][lo-1]]>>uint(lane)&1 == 1, true
}

// Trace implements the facade's Tracer contract: the value of net n at
// time t and whether that value is observable. Negative times belong to
// the previous vector and are never observable; otherwise observability
// follows the PC-set monitoring rule (ValueAt): false when t precedes
// the net's first PC element and the net had no zero inserted.
func (s *Sim) Trace(n circuit.NetID, t int) (bool, bool) {
	if t < 0 {
		return false, false
	}
	return s.laneValueAt(n, t, 0)
}

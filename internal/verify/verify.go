package verify

import (
	"fmt"
	"sort"

	"udsim/internal/program"
)

// Options configures a Check run.
type Options struct {
	// ReportDead promotes the dead-code census (rule V005) from
	// stats-only to Info findings.
	ReportDead bool
	// Disable lists rule IDs to skip (e.g. "V004").
	Disable []string
}

func (o *Options) disabled(rule string) bool {
	for _, d := range o.Disable {
		if d == rule {
			return true
		}
	}
	return false
}

// maxDeadFindings caps V005 Info findings so a large dead cone cannot
// drown the report; the full census is always in Stats.
const maxDeadFindings = 100

// Check statically analyzes a compiled simulation program against its
// layout metadata and returns a structured report. A clean report means
// the instruction stream provably respects the levelized execution model:
// every read is defined, every slot has a single producer, bit-fields are
// disjoint, and (when phases are given) every operand pair is aligned to
// the same simulated time.
func Check(spec *Spec, opts Options) *Report {
	r := &Report{Name: spec.Name}
	if !checkStructure(spec, r) {
		r.sortFindings()
		return r
	}
	if !opts.disabled(RuleLayout) {
		checkLayout(spec, r)
	}
	if !opts.disabled(RuleDefUse) || !opts.disabled(RuleWAW) {
		checkDefUse(spec, r, opts)
	}
	if spec.Phase != nil && !opts.disabled(RulePhase) {
		checkPhases(spec, r)
	}
	if !opts.disabled(RuleCycle) {
		checkCycles(spec, r)
	}
	if !opts.disabled(RuleDead) {
		checkLiveness(spec, r, opts)
	}
	if !opts.disabled(RuleLoopLive) {
		checkLoopLiveness(spec, r, !opts.disabled(RuleDead))
	}
	if !opts.disabled(RuleInterval) {
		checkIntervals(spec, r)
	}
	r.Stats.SimInstrs = len(spec.Sim.Code)
	if spec.Init != nil {
		r.Stats.InitInstrs = len(spec.Init.Code)
	}
	for _, f := range spec.Fields {
		r.Stats.FieldCapacityBits += int(f.Words) * spec.Sim.WordBits
		r.Stats.FieldUsedBits += f.WidthBits
	}
	r.sortFindings()
	return r
}

// checkStructure is rule V007: opcode/operand/shift validity via
// program.Validate plus spec metadata consistency. It returns false when
// the remaining rules cannot run safely.
func checkStructure(spec *Spec, r *Report) bool {
	if spec.Sim == nil {
		r.add(Finding{Rule: RuleStructure, Severity: SevError, Prog: "spec", Instr: -1, Slot: -1,
			Msg: "spec has no simulation program"})
		return false
	}
	ok := true
	structErr := func(prog string, err error) {
		r.add(Finding{Rule: RuleStructure, Severity: SevError, Prog: prog, Instr: -1, Slot: -1,
			Msg: err.Error()})
		ok = false
	}
	if err := spec.Sim.Validate(); err != nil {
		structErr("sim", err)
	}
	// program.Validate treats B == None as "no operand" for every opcode,
	// but a two-input gate evaluation with no second operand is
	// meaningless (and would crash the interpreter).
	missingB := func(prog string, p *program.Program) {
		for i := range p.Code {
			in := &p.Code[i]
			switch in.Op {
			case program.OpAnd, program.OpOr, program.OpXor,
				program.OpNand, program.OpNor, program.OpXnor:
				if in.B == program.None {
					r.add(Finding{Rule: RuleStructure, Severity: SevError, Prog: prog, Instr: i, Slot: in.Dst,
						Msg: fmt.Sprintf("binary %s with no B operand", in.Op)})
					ok = false
				}
			}
		}
	}
	missingB("sim", spec.Sim)
	if spec.Init != nil {
		missingB("init", spec.Init)
	}
	if spec.Init != nil {
		if err := spec.Init.Validate(); err != nil {
			structErr("init", err)
		}
		if spec.Init.NumVars != spec.Sim.NumVars {
			structErr("spec", fmt.Errorf("init has %d vars, sim has %d", spec.Init.NumVars, spec.Sim.NumVars))
		}
		if spec.Init.WordBits != spec.Sim.WordBits {
			structErr("spec", fmt.Errorf("init word width %d, sim %d", spec.Init.WordBits, spec.Sim.WordBits))
		}
	}
	nv := spec.numVars()
	if spec.ScratchStart < 0 || int(spec.ScratchStart) > nv {
		structErr("spec", fmt.Errorf("scratch start %d outside [0,%d]", spec.ScratchStart, nv))
	}
	for _, s := range spec.RuntimeWritten {
		if s < 0 || int(s) >= nv {
			structErr("spec", fmt.Errorf("runtime-written slot %d out of range", s))
		}
	}
	for _, s := range spec.LiveOut {
		if s < 0 || int(s) >= nv {
			structErr("spec", fmt.Errorf("live-out slot %d out of range", s))
		}
	}
	if spec.Phase != nil && len(spec.Phase) != nv {
		structErr("spec", fmt.Errorf("%d phases for %d slots", len(spec.Phase), nv))
	}
	return ok
}

// checkLayout is rule V003: packed bit-fields must be in range, disjoint
// from each other and from the scratch region.
func checkLayout(spec *Spec, r *Report) {
	if len(spec.Fields) == 0 {
		return
	}
	W := spec.Sim.WordBits
	idx := make([]int, len(spec.Fields))
	for i := range idx {
		idx[i] = i
	}
	// Stable so fields sharing a base (possible only in a broken layout)
	// keep declaration order and the findings stay deterministic.
	sort.SliceStable(idx, func(a, b int) bool { return spec.Fields[idx[a]].Base < spec.Fields[idx[b]].Base })
	for _, i := range idx {
		f := &spec.Fields[i]
		if f.Base < 0 || f.Words < 0 || int(f.Base)+int(f.Words) > int(spec.ScratchStart) {
			r.add(Finding{Rule: RuleLayout, Severity: SevError, Prog: "spec", Instr: -1, Slot: f.Base,
				Msg: fmt.Sprintf("field %q words [%d,%d) outside the persistent region [0,%d)",
					f.Name, f.Base, int(f.Base)+int(f.Words), spec.ScratchStart)})
		}
		if f.WidthBits > int(f.Words)*W {
			r.add(Finding{Rule: RuleLayout, Severity: SevError, Prog: "spec", Instr: -1, Slot: f.Base,
				Msg: fmt.Sprintf("field %q declares %d bits in %d words of %d bits",
					f.Name, f.WidthBits, f.Words, W)})
		}
	}
	for k := 1; k < len(idx); k++ {
		prev, cur := &spec.Fields[idx[k-1]], &spec.Fields[idx[k]]
		if cur.Base < prev.Base+prev.Words {
			r.add(Finding{Rule: RuleLayout, Severity: SevError, Prog: "spec", Instr: -1, Slot: cur.Base,
				Msg: fmt.Sprintf("fields %q [%d,%d) and %q [%d,%d) overlap",
					prev.Name, prev.Base, prev.Base+prev.Words,
					cur.Name, cur.Base, cur.Base+cur.Words)})
		}
	}
}

// checkDefUse is rules V001 and V002 in one walk over init, the runtime
// input writes, and sim.
//
// V001 (def-before-use): the init program may read only persistent slots
// (previous-vector state); the sim program may read a persistent slot
// only if its first sim-phase update, when it has one, has already
// executed — reading it earlier sees a stale or cleared value, which is
// exactly the levelization property the compilers promise. Scratch slots
// must always be written before being read.
//
// V002 (single assignment): a persistent slot receives at most one fresh
// definition per program. A fresh definition fully overwrites the slot
// without reading it (accumulating ops and fold continuations extend an
// existing definition instead). Two fresh definitions in one program mean
// two producers share the slot — a write-after-write conflict.
func checkDefUse(spec *Spec, r *Report, opts Options) {
	nv := spec.numVars()
	freshBy := make([]int32, nv) // 1 + index of the fresh definer, per program
	var rbuf []int32

	fresh := func(in *program.Instr) bool {
		if !in.Writes() || in.Accumulates() {
			return false
		}
		if in.UsesA() && in.A == in.Dst {
			return false
		}
		if in.UsesBSlot() && in.B == in.Dst {
			return false
		}
		return true
	}
	checkFresh := func(prog string, i int, in *program.Instr) {
		if !fresh(in) || !spec.persistent(in.Dst) {
			return
		}
		if prev := freshBy[in.Dst]; prev != 0 {
			if !opts.disabled(RuleWAW) {
				r.add(Finding{Rule: RuleWAW, Severity: SevError, Prog: prog, Instr: i, Slot: in.Dst,
					Msg: fmt.Sprintf("second fresh definition of %s (first at %s[%d])",
						slotName(spec, in.Dst), prog, prev-1)})
			}
			return
		}
		freshBy[in.Dst] = int32(i) + 1
	}

	// ---- Init: reads come from the previous vector's persistent state.
	writtenThisVector := make([]bool, nv)
	if spec.Init != nil {
		for i := range spec.Init.Code {
			in := &spec.Init.Code[i]
			rbuf = in.ReadSlots(rbuf[:0])
			for _, s := range rbuf {
				if !spec.persistent(s) && !writtenThisVector[s] && !opts.disabled(RuleDefUse) {
					r.add(Finding{Rule: RuleDefUse, Severity: SevError, Prog: "init", Instr: i, Slot: s,
						Msg: fmt.Sprintf("scratch slot %s read before being written", slotName(spec, s))})
				}
			}
			checkFresh("init", i, in)
			if in.Writes() {
				writtenThisVector[in.Dst] = true
			}
		}
	}
	for _, s := range spec.RuntimeWritten {
		writtenThisVector[s] = true
	}

	// ---- Sim: levelized order means producers run before consumers.
	firstWrite := make([]int32, nv) // 1 + first sim write index, 0 = none
	for i := range spec.Sim.Code {
		in := &spec.Sim.Code[i]
		if in.Writes() && firstWrite[in.Dst] == 0 {
			firstWrite[in.Dst] = int32(i) + 1
		}
	}
	for i := range freshBy {
		freshBy[i] = 0
	}
	simWritten := make([]bool, nv)
	for i := range spec.Sim.Code {
		in := &spec.Sim.Code[i]
		rbuf = in.ReadSlots(rbuf[:0])
		for _, s := range rbuf {
			if simWritten[s] || opts.disabled(RuleDefUse) {
				continue
			}
			if !spec.persistent(s) {
				r.add(Finding{Rule: RuleDefUse, Severity: SevError, Prog: "sim", Instr: i, Slot: s,
					Msg: fmt.Sprintf("scratch slot %s read before being written", slotName(spec, s))})
				continue
			}
			fw := firstWrite[s]
			switch {
			case fw == 0:
				// Never updated in sim: the init/runtime/previous value is
				// the slot's value for this vector. Fine.
			case int(fw-1) > i:
				r.add(Finding{Rule: RuleDefUse, Severity: SevError, Prog: "sim", Instr: i, Slot: s,
					Msg: fmt.Sprintf("stale read of %s: its update is later, at sim[%d]",
						slotName(spec, s), fw-1)})
			case int(fw-1) == i && in.Accumulates() && s == in.Dst:
				// Accumulating into the slot's pre-sim content: legal only
				// when this vector's init or runtime prepared it.
				if !writtenThisVector[s] {
					r.add(Finding{Rule: RuleDefUse, Severity: SevError, Prog: "sim", Instr: i, Slot: s,
						Msg: fmt.Sprintf("accumulation into %s, which holds stale previous-vector bits",
							slotName(spec, s))})
				}
			case int(fw-1) == i:
				// Fold continuation whose opening definition is missing.
				r.add(Finding{Rule: RuleDefUse, Severity: SevError, Prog: "sim", Instr: i, Slot: s,
					Msg: fmt.Sprintf("continuation reads %s with no prior definition this vector",
						slotName(spec, s))})
			}
		}
		checkFresh("sim", i, in)
		if in.Writes() {
			simWritten[in.Dst] = true
		}
	}
}

// phase lattice for rule V004.
type phase struct {
	exact bool
	t     int
}

var anyPhase = phase{}

func exactPhase(t int) phase { return phase{exact: true, t: t} }

func compat(a, b phase) bool { return !a.exact || !b.exact || a.t == b.t }

// bump advances a phase by one unit gate delay.
func bump(p phase) phase {
	if !p.exact {
		return p
	}
	return exactPhase(p.t + 1)
}

// join merges two compatible phases, preferring the exact one.
func join(a, b phase) phase {
	if a.exact {
		return a
	}
	return b
}

// checkPhases is rule V004: shift-consistency. Every persistent slot with
// a static phase holds, in bit i, the simulated time Phase[slot]+i. The
// walk tracks the phase of every value: shifts translate it (left by Sh
// lowers it, right raises it), carry operands must supply the adjacent
// word (phase ±W), gate evaluations require all operands in the same
// phase and advance the result by the unit gate delay, and every write
// into a phased slot must match that slot's static phase. Broadcast fills
// and constants are phase-free (compatible with anything), which is how
// the trimming optimization's saturated words type-check.
func checkPhases(spec *Spec, r *Report) {
	nv := spec.numVars()
	W := spec.Sim.WordBits
	cur := make([]phase, nv)
	static := make([]phase, nv)
	for i := 0; i < nv; i++ {
		if p := spec.Phase[i]; p != NoPhase {
			static[i] = exactPhase(p)
			cur[i] = static[i]
		}
	}

	violation := func(prog string, i int, slot int32, msg string) {
		r.add(Finding{Rule: RulePhase, Severity: SevError, Prog: prog, Instr: i, Slot: slot, Msg: msg})
	}
	// write records a value phase landing in dst, checking the static
	// phase of phased slots. A phase-free value stays phase-free there:
	// a broadcast word (trimming's saturated words) reads the same at
	// every phase, so a later carry or operand read of it is aligned.
	write := func(prog string, i int, dst int32, v phase) {
		if st := static[dst]; !compat(v, st) {
			violation(prog, i, dst, fmt.Sprintf("value in phase %d written to %s, which is packed at phase %d",
				v.t, slotName(spec, dst), st.t))
			v = st
		}
		cur[dst] = v
	}

	walk := func(prog string, p *program.Program) {
		for i := range p.Code {
			in := &p.Code[i]
			switch in.Op {
			case program.OpNop:
			case program.OpConst0, program.OpConst1, program.OpFill, program.OpBit, program.OpFillLowN:
				// Constants and broadcasts are uniform across bits:
				// phase-free.
				write(prog, i, in.Dst, anyPhase)
			case program.OpMove, program.OpNot:
				if in.A == in.Dst {
					break // fold finisher: phase preserved
				}
				write(prog, i, in.Dst, bump(cur[in.A]))
			case program.OpAnd, program.OpOr, program.OpXor, program.OpNand, program.OpNor, program.OpXnor:
				pa, pb := cur[in.A], cur[in.B]
				switch {
				case in.A == in.Dst || in.B == in.Dst:
					// Fold continuation: dst already carries the bumped
					// phase, the other operand must sit one delay below.
					operand, pd, opSlot := pb, pa, in.B
					if in.B == in.Dst {
						operand, pd, opSlot = pa, pb, in.A
					}
					if in.A == in.Dst && in.B == in.Dst {
						break
					}
					if !compat(bump(operand), pd) {
						violation(prog, i, in.Dst, fmt.Sprintf(
							"fold operand %s in phase %d, accumulator %s expects phase %d",
							slotName(spec, opSlot), operand.t, slotName(spec, in.Dst), pd.t-1))
					}
				default:
					if !compat(pa, pb) {
						violation(prog, i, in.Dst, fmt.Sprintf(
							"operands %s (phase %d) and %s (phase %d) are not aligned",
							slotName(spec, in.A), pa.t, slotName(spec, in.B), pb.t))
					}
					write(prog, i, in.Dst, bump(join(pa, pb)))
				}
			case program.OpOrMove:
				pa := cur[in.A]
				if !compat(pa, cur[in.Dst]) {
					violation(prog, i, in.Dst, fmt.Sprintf(
						"merge of %s (phase %d) into %s (phase %d)",
						slotName(spec, in.A), pa.t, slotName(spec, in.Dst), cur[in.Dst].t))
				}
				write(prog, i, in.Dst, join(pa, cur[in.Dst]))
			case program.OpShlOr, program.OpShlMove:
				pa := cur[in.A]
				if in.B != program.None {
					if pb := cur[in.B]; pa.exact && pb.exact && pb.t != pa.t-W {
						violation(prog, i, in.Dst, fmt.Sprintf(
							"left-shift carry %s in phase %d, want phase %d (one word below %s)",
							slotName(spec, in.B), pb.t, pa.t-W, slotName(spec, in.A)))
					}
				}
				v := pa
				if pa.exact {
					v = exactPhase(pa.t - int(in.Sh))
				}
				if in.Op == program.OpShlOr && !compat(v, cur[in.Dst]) {
					violation(prog, i, in.Dst, fmt.Sprintf(
						"shifted value in phase %d ORed into %s, which is in phase %d",
						v.t, slotName(spec, in.Dst), cur[in.Dst].t))
				}
				write(prog, i, in.Dst, v)
			case program.OpShrMove:
				pa := cur[in.A]
				if in.B != program.None {
					if pb := cur[in.B]; pa.exact && pb.exact && pb.t != pa.t+W {
						violation(prog, i, in.Dst, fmt.Sprintf(
							"right-shift carry %s in phase %d, want phase %d (one word above %s)",
							slotName(spec, in.B), pb.t, pa.t+W, slotName(spec, in.A)))
					}
				}
				v := pa
				if pa.exact {
					v = exactPhase(pa.t + int(in.Sh))
				}
				write(prog, i, in.Dst, v)
			}
		}
	}
	if spec.Init != nil {
		walk("init", spec.Init)
	}
	for _, s := range spec.RuntimeWritten {
		if static[s].exact {
			cur[s] = static[s]
		}
	}
	walk("sim", spec.Sim)
}

// checkCycles is rule V006: the slot dependency graph of the simulation
// program, with persistent slots as single vertices and scratch slots
// renamed per write (scratch is reused across gates by design), must be
// acyclic. This is a backstop to the levelize package: a combinational
// cycle that slipped through analysis shows up here as mutually dependent
// slots regardless of the order the instructions appear in.
func checkCycles(spec *Spec, r *Report) {
	nv := spec.numVars()
	node := make([]int32, nv) // current vertex per slot
	for i := range node {
		node[i] = int32(i)
	}
	next := int32(nv)
	var edges [][2]int32
	var rbuf []int32
	for i := range spec.Sim.Code {
		in := &spec.Sim.Code[i]
		if !in.Writes() {
			continue
		}
		rbuf = in.ReadSlots(rbuf[:0])
		var srcs [3]int32
		ns := 0
		for _, s := range rbuf {
			srcs[ns] = node[s]
			ns++
		}
		dst := in.Dst
		if !spec.persistent(dst) && !in.Accumulates() {
			node[dst] = next
			next++
		}
		tgt := node[dst]
		for k := 0; k < ns; k++ {
			if srcs[k] != tgt {
				edges = append(edges, [2]int32{srcs[k], tgt})
			}
		}
	}
	// Kahn's algorithm: vertices left over after peeling sit on cycles.
	indeg := make([]int32, next)
	adj := make([][]int32, next)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	queue := make([]int32, 0, next)
	for v := int32(0); v < next; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	removed := int32(0)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, w := range adj[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if removed == next {
		return
	}
	reported := 0
	for v := int32(0); v < int32(nv) && reported < 8; v++ {
		if indeg[v] > 0 && spec.persistent(v) {
			r.add(Finding{Rule: RuleCycle, Severity: SevError, Prog: "sim", Instr: -1, Slot: v,
				Msg: fmt.Sprintf("slot %s sits on a combinational dependency cycle", slotName(spec, v))})
			reported++
		}
	}
	if reported == 0 {
		r.add(Finding{Rule: RuleCycle, Severity: SevError, Prog: "sim", Instr: -1, Slot: -1,
			Msg: "combinational dependency cycle among scratch slots"})
	}
}

// checkLiveness is rule V005: backward liveness from LiveOut through sim,
// the runtime input writes, then init. Instructions whose destination is
// not live are dead — their result can never reach a primary output or
// the state the next vector starts from.
func checkLiveness(spec *Spec, r *Report, opts Options) {
	nv := spec.numVars()
	live := make([]bool, nv)
	for _, s := range spec.LiveOut {
		live[s] = true
	}
	var rbuf []int32
	walk := func(p *program.Program) []int {
		var dead []int
		for i := len(p.Code) - 1; i >= 0; i-- {
			in := &p.Code[i]
			if !in.Writes() {
				continue
			}
			if !live[in.Dst] {
				dead = append(dead, i)
				continue
			}
			live[in.Dst] = false
			rbuf = in.ReadSlots(rbuf[:0])
			for _, s := range rbuf {
				live[s] = true
			}
		}
		sort.Ints(dead)
		return dead
	}
	r.Stats.DeadSim = walk(spec.Sim)
	for _, s := range spec.RuntimeWritten {
		live[s] = false
	}
	if spec.Init != nil {
		r.Stats.DeadInit = walk(spec.Init)
	}

	// Unused-slot census: slots nothing ever references.
	used := make([]bool, nv)
	for _, s := range spec.LiveOut {
		used[s] = true
	}
	for _, s := range spec.RuntimeWritten {
		used[s] = true
	}
	mark := func(p *program.Program) {
		if p == nil {
			return
		}
		for i := range p.Code {
			in := &p.Code[i]
			if in.Writes() {
				used[in.Dst] = true
			}
			rbuf = in.ReadSlots(rbuf[:0])
			for _, s := range rbuf {
				used[s] = true
			}
		}
	}
	mark(spec.Init)
	mark(spec.Sim)
	for _, u := range used {
		if !u {
			r.Stats.UnusedSlots++
		}
	}

	if opts.ReportDead {
		emit := func(prog string, idxs []int, p *program.Program) {
			for _, i := range idxs {
				if len(r.Findings) >= maxDeadFindings {
					return
				}
				in := &p.Code[i]
				r.add(Finding{Rule: RuleDead, Severity: SevInfo, Prog: prog, Instr: i, Slot: in.Dst,
					Msg: fmt.Sprintf("dead %s into %s: result never reaches a live-out slot",
						in.Op, slotName(spec, in.Dst))})
			}
		}
		emit("sim", r.Stats.DeadSim, spec.Sim)
		emit("init", r.Stats.DeadInit, spec.Init)
	}
}

// slotName renders a slot using the sim program's variable names.
func slotName(spec *Spec, s int32) string {
	return fmt.Sprintf("%s(%d)", spec.Sim.VarName(s), s)
}

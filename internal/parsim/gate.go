package parsim

import (
	"fmt"
	"math/bits"
	"time"

	"udsim/internal/activity/cone"
	"udsim/internal/circuit"
	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/shard"
)

// gater is the plan-time structure and per-vector bookkeeping of the
// activity-gated execution strategy (shard.ActivityGated): Maurer's
// Table 3 observation — most gates are idle on most vectors — turned
// into a sound skip rule for the compiled program.
//
// The soundness argument has two halves:
//
//  1. Skipping. The plan's instructions are partitioned into gate
//     groups, and a group runs only when the union of its output nets'
//     primary-input cones intersects the set of inputs that changed
//     since the previous vector. Cones are supersets of true
//     dependence, so a skipped group's nets provably settle at their
//     previous finals. Groups are fine-grained: one per net's
//     instruction cluster, unioned only where a scratch-slot dependence
//     crosses clusters, and each level is cut into contiguous per-group
//     segments the engine executes as active ranges (Engine.SetGate) —
//     so a level that must run for one hot cone still skips every cold
//     one.
//  2. Flattening. A skipped net's field still holds the previous
//     vector's waveform, which downstream readers and History would see.
//     Under the flat and trimmed layouts the correct field of a settled
//     net is every word equal to the settled value broadcast (time 0 is
//     the previous final and no event ever fires), so the runtime
//     rewrites skipped fields to that constant — O(words) instead of
//     the init + simulation instructions. The settled value is the
//     net's own final bit, which no instruction touches while the net is
//     skipped. Shift-eliminated layouts pack previous-vector bits at
//     negative times and break this broadcast form, which is why
//     ConfigureExec rejects gating for cfg.Align (and cfg.Delays)
//     compiles.
//
// The contract is that every read of the state sees what sequential
// execution would have left, not that the state array equals it after
// every vector: flattening is deferred until something reads a field
// word other than the final bit. A vector that runs no instruction
// flattens nothing; the groups it would have flattened join a pending
// set, which is flattened before the next vector that runs any range
// (its instructions may read those fields) and before anything else
// reads field words — ValueAt and so Trace, History and activity
// observation, the core's Save and Clone, and every replacement of the
// gater (Gate). Final and FinalSlot read only final bits, which are
// exact either way. A vector on the sequential form empties the set
// without flattening: it rewrites every field, and the only field bits
// it reads are the top bits the init program fills from, which hold the
// final value whether a field was flattened or not. So does an
// invalidation, after which the state is rewritten or undefined.
//
// Each vector then runs on the cheaper of two bit-identical executors,
// chosen once per vector right after the decision (see decide): the
// core's sequential execution form over the whole program, or the level
// loop over the active ranges (shard.Engine.SetGate). The first vector
// after compile, ResetConsistent, a checkpoint restore or a fault (valid
// == false) runs the sequential form.
//
// Bookkeeping is proportional to activity. Per vector it costs one
// primary-input diff and a branch-free cone intersection per group, then
// work in the active groups only: their segments are marked in a bitmap
// whose set bits, walked in order, become the engine's ranges, and only
// the nets of groups that just went idle are queued for flattening (a
// field stays flat while its group stays idle). A vector with nothing
// active skips the marking and closes every level gate. After a vector
// whose activity is unknown — the first after an invalidation, or one
// sent to the sequential form before the scan — every idle group is
// queued instead. All per-group lists are flat CSR arrays and every
// buffer is sized here, so the steady state allocates nothing.
type gater struct {
	levels int

	// The gate groups' activation cones: primary-input bitsets stored
	// word-major, word w of group g at [w*numGroups+g], so the scan
	// streams one contiguous array per changed word.
	numGroups int
	groupCone []uint64

	// Segmentation: each level's slice cut into contiguous per-group
	// segments. Segment i lies in level segLevel[i] and spans
	// code[segSpan[2i]:segSpan[2i+1]] of it; segCost[i] is its price in
	// op units (see segmentOps). The init program is cut the same way
	// into initSpan segments.
	segLevel []int32
	segSpan  []int32
	segCost  []int32
	initSpan []int32

	// Per group g, as CSR slices [off[g]:off[g+1]]: its level segments,
	// its init segments and its nets; grpCost[g] is the summed segCost.
	grpSegOff, grpSegs   []int32
	grpInitOff, grpInits []int32
	grpNetOff, grpNets   []int32
	grpCost              []int64

	// Always-active work: the segments of no group (as bitmaps the
	// per-vector marks start from) and their cost. noBase: there is none,
	// so a vector with no active group runs no instruction at all.
	segBase, initBase []uint64
	baseCost          int64
	noBase            bool
	seqCost           int64 // estimated cost at which the sequential form takes over

	// piCost[i] is the estimated cost of a vector that changes primary
	// input i alone: a lower bound on the cost of any vector changing it,
	// which sends a vector to the sequential form before the cone scan.
	piCost []int64

	// Reusable per-vector buffers.
	changed  []uint64
	nz       []int32  // the nonzero words of changed
	actOn    []uint64 // group bitmap: active in this (then the previous) vector
	active   []int32  // the same groups as a list
	pend     []uint64 // group bitmap: flattening deferred (see Flatten)
	pending  bool     // pend has a set bit
	idle     bool     // this vector runs no instruction
	segOn    []uint64
	initOn   []uint64
	runLevel []bool  // the engine's level gates
	runs     []int32 // the engine's active-range pairs
	runOff   []int32 // per-level offsets into runs
	initRuns []int32 // the init program's active-range pairs

	valid bool // false forces the next vector onto the sequential form
	// unknown: the previous vector ran everything without a cone scan
	// (after an invalidation, or sent to the sequential form by piCost),
	// so its activity is unknown.
	unknown bool
	exec    int // this vector's executor: obs.GatedSequential or obs.GatedCaller

	// Cumulative gating tallies since ConfigureExec, read by
	// GatingLevels: vectors decided, levels run, levels skipped. Plain
	// int64s — decide runs on the caller's goroutine.
	decVectors, decLevelsRun, decLevelsSkipped int64
}

// The executor choice's cost model, in the plan's op units (shard.OpCost).
// A gated vector's estimated cost is the op cost of its active segments
// plus segmentOps per active segment, for the range each segment adds to
// the level loop and to the init run. The level loop runs levels in
// emission order, in short ranges, through program.Exec's
// per-instruction switch; the sequential form runs the whole program
// through its opcode-clustered loop. Timed vector by vector in lockstep
// on the ten profiles (sim-proved's compile pipeline, toggle rates 0.3%
// to 40%), the gated path costs 3.0–4.2× the sequential form per op at
// full activity and breaks even at about 10–15% of the program's ops
// active, so a vector whose estimate reaches sequentialShare of the
// program's op cost runs on the sequential form. EXPERIMENTS.md
// ("Activity-gated executor choice") has the sweep that chose both.
const (
	segmentOps      = 4
	sequentialShare = 0.2
)

// invalidate forces the next vector to run (and re-materialize) every
// group — the reset after any operation that makes the state array's
// relation to PrevPI unknown. Pending flattening is dropped: the state
// is rewritten (reset, restore) or undefined (fault).
func (g *gater) invalidate() {
	if g != nil {
		g.valid = false
		g.dropPending()
	}
}

// dropPending empties the pending set without flattening.
func (g *gater) dropPending() {
	if g.pending {
		clear(g.pend)
		g.pending = false
	}
}

// Gate implements engine.Gating: it builds the activity gating for the
// level loop's plan and installs it, or drops it when e is nil. The
// gater it replaces flattens its pending fields first; a layout that
// cannot be gated is refused before anything is replaced.
func (s *Sim) Gate(e *shard.Engine) error {
	if e != nil && s.cfg.Align != nil {
		return fmt.Errorf("parsim: activity gating requires the flat or trimmed layout (shift elimination packs previous-vector bits that break the settled-field skip rule)")
	}
	if e != nil && s.cfg.Delays != nil {
		return fmt.Errorf("parsim: activity gating does not support nominal gate delays")
	}
	s.Flatten()
	s.gate = nil
	if e == nil {
		return nil
	}
	g := s.buildGater(e.Plan())
	e.SetGate(g.runLevel, g.runs, g.runOff)
	s.gate = g
	return nil
}

// Invalidate implements engine.Gating: the next gated vector runs every
// group.
func (s *Sim) Invalidate() { s.gate.invalidate() }

// SequentialForm implements engine.Gating: whether the vector being
// applied runs on the core's sequential execution form.
func (s *Sim) SequentialForm() bool { return s.gate != nil && s.gate.exec == obs.GatedSequential }

// buildGater derives the gating structure for a configured plan: one
// gate group per net's instruction cluster, unioned only where a
// scratch-slot dependence crosses clusters, with every level cut into
// contiguous per-group segments for the engine's active-range execution.
func (s *Sim) buildGater(plan *shard.Plan) *gater {
	scratchStart := s.ScratchStart()
	levels := plan.Stats().Levels
	numNets := s.Circuit().NumNets()

	// Persistent slot → net, via the disjoint bit-field layout (V003).
	slotNet := make([]int32, scratchStart)
	for i := range slotNet {
		slotNet[i] = -1
	}
	for n := 0; n < numNets; n++ {
		for w := int32(0); w < s.words[n]; w++ {
			slotNet[s.base[n]+w] = int32(n)
		}
	}

	// Union-find over nets; index numNets is the virtual always-run
	// class that collects instructions no net can own.
	always := int32(numNets)
	uf := make([]int32, numNets+1)
	for i := range uf {
		uf[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	union := func(a, b int32) {
		if ra, rb := find(a), find(b); ra != rb {
			uf[ra] = rb
		}
	}

	// Pass 1 — attribution and segmentation, per level in engine order.
	// A field-writing instruction belongs to its destination's net; a
	// scratch write belongs to the cluster that consumes it, which the
	// backward fill identifies as the next field-writing instruction.
	owners := make([][]int32, levels)
	var segNet []int32 // per segment: owning net, or the always class
	var segEnd []int32
	levelSegOff := make([]int32, levels+1)
	for l := 0; l < levels; l++ {
		levelSegOff[l] = int32(len(segEnd))
		code := plan.LevelCode(l)
		own := make([]int32, len(code))
		cur := always
		for i := len(code) - 1; i >= 0; i-- {
			in := &code[i]
			if in.Writes() && in.Dst < scratchStart {
				if n := slotNet[in.Dst]; n >= 0 {
					cur = n
				} else {
					cur = always
				}
			}
			own[i] = cur
		}
		owners[l] = own
		for i := range code {
			if i == 0 || own[i] != own[i-1] {
				segNet = append(segNet, own[i])
				segEnd = append(segEnd, 0)
			}
			segEnd[len(segEnd)-1] = int32(i + 1)
		}
	}
	levelSegOff[levels] = int32(len(segEnd))

	// Pass 2 — scratch dependences. Walking the levels in execution
	// order, a cluster that reads a scratch slot another cluster last
	// wrote gates together with the writer (cross-level carry hand-offs,
	// compaction-shared temporaries); a read with no recorded writer is
	// conservatively never gated.
	_, sim := s.Programs()
	lastW := make([]int32, sim.NumVars-int(scratchStart))
	for i := range lastW {
		lastW[i] = -1
	}
	var rbuf [3]int32
	for l := 0; l < levels; l++ {
		code := plan.LevelCode(l)
		own := owners[l]
		for i := range code {
			in := &code[i]
			for _, r := range in.ReadSlots(rbuf[:0]) {
				if r < scratchStart {
					continue
				}
				switch lw := lastW[r-scratchStart]; {
				case lw < 0:
					union(own[i], always)
				case lw != own[i]:
					union(own[i], lw)
				}
			}
			if in.Writes() && in.Dst >= scratchStart {
				lastW[in.Dst-scratchStart] = own[i]
			}
		}
	}

	// Compact the union-find classes into dense group ids. Nets in the
	// always class (and nets with no simulation writers — inputs) keep
	// netGroup -1: they always run and are never flattened.
	hasWriter := make([]bool, numNets)
	for _, n := range segNet {
		if n != always {
			hasWriter[n] = true
		}
	}
	aroot := find(always)
	groupOf := make(map[int32]int32)
	netGroup := make([]int32, numNets)
	var numGroups int32
	for n := 0; n < numNets; n++ {
		netGroup[n] = -1
		if !hasWriter[n] {
			continue
		}
		root := find(int32(n))
		if root == aroot {
			continue
		}
		g, ok := groupOf[root]
		if !ok {
			g = numGroups
			numGroups++
			groupOf[root] = g
		}
		netGroup[n] = g
	}
	segGrp := make([]int32, len(segNet))
	for i, n := range segNet {
		if n == always {
			segGrp[i] = -1
		} else {
			segGrp[i] = netGroup[n]
		}
	}

	return s.newGater(plan, slotNet, netGroup, int(numGroups), segGrp, segEnd, levelSegOff)
}

// newGater builds the gating state from buildGater's grouping and
// segmentation: activation cones, segment spans and costs, the init
// program's segmentation, the per-group CSR lists and the per-vector
// buffers.
func (s *Sim) newGater(plan *shard.Plan, slotNet, netGroup []int32, numGroups int, segGrp, segEnd, levelSegOff []int32) *gater {
	numNets := s.Circuit().NumNets()
	scratchStart := s.ScratchStart()
	init, _ := s.Programs()
	levels := len(levelSegOff) - 1
	g := &gater{
		levels:    levels,
		numGroups: numGroups,
	}

	// Group activation cones: the union over the group's output nets.
	cones := cone.ComputeOrdered(s.Circuit(), s.Analysis().LevelOrder)
	words := cones.Words()
	byGroup := make([]uint64, numGroups*words)
	for n := 0; n < numNets; n++ {
		if grp := netGroup[n]; grp >= 0 {
			cones.OrInto(byGroup[int(grp)*words:(int(grp)+1)*words], circuit.NetID(n))
		}
	}
	g.groupCone = make([]uint64, len(byGroup))
	for grp := 0; grp < numGroups; grp++ {
		for w := 0; w < words; w++ {
			g.groupCone[w*numGroups+grp] = byGroup[grp*words+w]
		}
	}

	// Segment spans and costs, level by level.
	numSegs := len(segEnd)
	g.segLevel = make([]int32, numSegs)
	g.segSpan = make([]int32, 2*numSegs)
	g.segCost = make([]int32, numSegs)
	var total int64
	for l := 0; l < levels; l++ {
		code := plan.LevelCode(l)
		start := int32(0)
		for i := levelSegOff[l]; i < levelSegOff[l+1]; i++ {
			cost := int32(segmentOps)
			for _, in := range code[start:segEnd[i]] {
				cost += int32(shard.OpCost(in.Op))
			}
			g.segLevel[i], g.segSpan[2*i], g.segSpan[2*i+1], g.segCost[i] = int32(l), start, segEnd[i], cost
			total += int64(cost - segmentOps)
			start = segEnd[i]
		}
	}
	g.seqCost = int64(sequentialShare * float64(total))

	// Init instructions are tagged with their destination net's group so
	// the gated init run skips exactly the nets the simulation skips.
	// Init reads only a field's own top word, so dropping a skipped net's
	// instructions cannot starve an active one. The tags are collapsed to
	// contiguous segments: the compiler emits a net's init instructions
	// together, so the segment count is O(nets).
	var initSegGrp []int32
	for i := range init.Code {
		in := &init.Code[i]
		grp := int32(-1)
		if in.Writes() && in.Dst < scratchStart {
			if n := slotNet[in.Dst]; n >= 0 {
				grp = netGroup[n]
			}
		}
		if i == 0 || grp != initSegGrp[len(initSegGrp)-1] {
			initSegGrp = append(initSegGrp, grp)
			g.initSpan = append(g.initSpan, int32(i), 0)
		}
		g.initSpan[len(g.initSpan)-1] = int32(i + 1)
	}

	// Per-group lists and the always-active remainder.
	g.grpSegOff, g.grpSegs = groupLists(segGrp, numGroups)
	g.grpInitOff, g.grpInits = groupLists(initSegGrp, numGroups)
	g.grpNetOff, g.grpNets = groupLists(netGroup, numGroups)
	g.grpCost = make([]int64, numGroups)
	g.segBase = make([]uint64, (numSegs+63)/64)
	for i, grp := range segGrp {
		if grp >= 0 {
			g.grpCost[grp] += int64(g.segCost[i])
		} else {
			g.segBase[i>>6] |= 1 << (uint(i) & 63)
			g.baseCost += int64(g.segCost[i])
		}
	}
	g.initBase = make([]uint64, (len(initSegGrp)+63)/64)
	g.noBase = g.baseCost == 0
	for i, grp := range initSegGrp {
		if grp < 0 {
			g.initBase[i>>6] |= 1 << (uint(i) & 63)
			g.noBase = false
		}
	}
	g.piCost = make([]int64, len(s.Circuit().Inputs))
	for i := range g.piCost {
		g.piCost[i] = g.baseCost
		for grp := 0; grp < numGroups; grp++ {
			if g.groupCone[(i>>6)*numGroups+grp]>>(uint(i)&63)&1 != 0 {
				g.piCost[i] += g.grpCost[grp]
			}
		}
	}

	g.changed = make([]uint64, words)
	g.nz = make([]int32, 0, words)
	g.actOn = make([]uint64, (numGroups+63)/64)
	g.active = make([]int32, 0, numGroups)
	g.pend = make([]uint64, len(g.actOn))
	g.segOn = make([]uint64, len(g.segBase))
	g.initOn = make([]uint64, len(g.initBase))
	g.runLevel = make([]bool, g.levels)
	g.runs = make([]int32, 2*numSegs)
	g.runOff = make([]int32, levels+1)
	g.initRuns = make([]int32, len(g.initSpan))
	return g
}

// groupLists returns the CSR lists of the items keyed by group: item i
// belongs to group key[i] (none when negative), and group g's items are
// idx[off[g]:off[g+1]], in increasing order.
func groupLists(key []int32, numGroups int) (off, idx []int32) {
	off = make([]int32, numGroups+1)
	for _, k := range key {
		if k >= 0 {
			off[k+1]++
		}
	}
	for k := 0; k < numGroups; k++ {
		off[k+1] += off[k]
	}
	idx = make([]int32, off[numGroups])
	next := append([]int32(nil), off[:numGroups]...)
	for i, k := range key {
		if k >= 0 {
			idx[next[k]] = int32(i)
			next[k]++
		}
	}
	return off, idx
}

// decide computes this vector's group activity from the primary-input
// diff, queues the groups to flatten, chooses its executor and, unless
// that is the sequential form or nothing runs, fills the engine gate
// arrays. prev is the previous vector's inputs (read before the caller
// overwrites them). Returns the number of segments skipped, for the
// observer.
//
// The executor is the sequential form after an invalidation and
// whenever the estimated gated cost reaches seqCost (see segmentOps),
// and the level loop on the caller alone otherwise. A changed input
// whose piCost alone reaches seqCost decides for the sequential form
// before the scan: on sim-proved's profiles that skips the scan for most
// busy vectors, which makes gated streams 1.3× faster at a 1% toggle
// rate and 1.5–1.6× at 10% and 40% (EXPERIMENTS.md, "Activity-gated
// executor choice").
func (g *gater) decide(inputs, prev []bool) (skipped int64) {
	g.decVectors++
	if !g.valid {
		// First vector after an invalidation: the state array's relation
		// to prev is unknown, so everything runs (and every field is
		// freshly materialized).
		g.valid, g.unknown = true, true
		return g.runAll()
	}
	for i := range g.changed {
		g.changed[i] = 0
	}
	for i := range inputs {
		if inputs[i] != prev[i] {
			if g.piCost[i] >= g.seqCost {
				g.unknown = true
				return g.runAll()
			}
			g.changed[i>>6] |= 1 << (uint(i) & 63)
		}
	}

	// The cone scan, into a group bitmap: each group's test is a load and
	// an AND per changed bitset word — one word on every vector of a
	// circuit with at most 64 inputs, and on most low-activity vectors of
	// wider ones — and a branch-free bit insert.
	nz := g.nz[:0]
	for w, ch := range g.changed {
		if ch != 0 {
			nz = append(nz, int32(w))
		}
	}
	// Per block of 64 groups: the active bits, then the active list and
	// its cost; the groups the previous vector left materialized and this
	// one leaves idle join the pending set.
	act := g.active[:0]
	cost := g.baseCost
	var queued uint64
	for b := range g.actOn {
		lo := b << 6
		hi := min(lo+64, g.numGroups)
		var on uint64
		if len(nz) == 1 {
			w := int(nz[0])
			ch := g.changed[w]
			for gi, c := range g.groupCone[w*g.numGroups+lo : w*g.numGroups+hi] {
				t := c & ch
				on |= (t | -t) >> 63 << uint(gi)
			}
		} else if len(nz) > 1 {
			for gi := lo; gi < hi; gi++ {
				var t uint64
				for _, w := range nz {
					t |= g.groupCone[int(w)*g.numGroups+gi] & g.changed[w]
				}
				on |= (t | -t) >> 63 << uint(gi-lo)
			}
		}
		idle := g.actOn[b] &^ on
		if g.unknown {
			idle = ^on & (1<<uint(hi-lo) - 1)
		}
		g.actOn[b] = on
		g.pend[b] |= idle
		queued |= idle
		for ; on != 0; on &= on - 1 {
			gi := lo | bits.TrailingZeros64(on)
			act = append(act, int32(gi))
			cost += g.grpCost[gi]
		}
	}
	g.active = act
	g.pending = g.pending || queued != 0
	g.unknown = false
	if cost >= g.seqCost {
		return g.runAll()
	}
	g.exec = obs.GatedCaller
	g.idle = len(act) == 0 && g.noBase
	if g.idle {
		// Nothing runs: every level gate closes, the ranges are left as
		// they are (a closed level never reads them) and nothing is
		// flattened yet.
		clear(g.runLevel)
		g.decLevelsSkipped += int64(g.levels)
		return int64(len(g.segLevel))
	}

	// Mark the active segments, then walk the marks in order: each
	// level's marked segments become its ranges (adjacent ones merged).
	copy(g.segOn, g.segBase)
	for _, gi := range act {
		for _, si := range g.grpSegs[g.grpSegOff[gi]:g.grpSegOff[gi+1]] {
			g.segOn[si>>6] |= 1 << (uint(si) & 63)
		}
	}
	ri, next, marked := int32(0), int32(0), 0
	for wi, word := range g.segOn {
		for ; word != 0; word &= word - 1 {
			si := wi<<6 | bits.TrailingZeros64(word)
			marked++
			l := g.segLevel[si]
			for ; next <= l; next++ {
				g.runOff[next] = ri
			}
			a, b := g.segSpan[2*si], g.segSpan[2*si+1]
			if ri > g.runOff[l] && g.runs[2*ri-1] == a {
				g.runs[2*ri-1] = b
			} else {
				g.runs[2*ri], g.runs[2*ri+1] = a, b
				ri++
			}
		}
	}
	for ; int(next) < len(g.runOff); next++ {
		g.runOff[next] = ri
	}

	// Level gates.
	for l := 0; l < g.levels; l++ {
		run := g.runOff[l+1] > g.runOff[l]
		g.runLevel[l] = run
		if run {
			g.decLevelsRun++
		} else {
			g.decLevelsSkipped++
		}
	}
	return int64(len(g.segLevel) - marked)
}

// runAll sends this vector to the sequential form: every level runs and
// nothing is skipped or flattened, and the pending set empties because
// the form rewrites every field.
func (g *gater) runAll() int64 {
	g.exec, g.idle = obs.GatedSequential, false
	g.dropPending()
	g.decLevelsRun += int64(g.levels)
	return 0
}

// GatingLevels reports the activity-gated strategy's cumulative level
// tally since ConfigureExec: vectors decided, levels executed, and
// levels skipped. A vector on the sequential form runs every level (the
// observer counts the vectors per executor). All zeros when the
// configured strategy is not ActivityGated.
func (s *Sim) GatingLevels() (vectors, run, skipped int64) {
	if s.gate == nil {
		return 0, 0, 0
	}
	return s.gate.decVectors, s.gate.decLevelsRun, s.gate.decLevelsSkipped
}

// gatedInit is the gated apply's init phase: decide which gate groups
// this vector can touch and where it runs (reading PrevPI before
// WriteInputs overwrites it), then run the init program minus the
// skipped nets.
func (s *Sim) gatedInit(inputs []bool) {
	g := s.gate
	o := s.Observer()
	if o == nil {
		g.decide(inputs, s.PrevPI)
		s.runGatedInit()
		return
	}
	o.AddVectors(1)
	t0 := time.Now()
	skipped := g.decide(inputs, s.PrevPI)
	o.AddGatingNanos(time.Since(t0))
	o.AddShardsSkipped(skipped)
	o.AddGatedVector(g.exec)
	t1 := time.Now()
	s.runGatedInit()
	o.AddInit(time.Since(t1))
}

// runGatedInit executes the init program: its sequential form for a
// vector on the sequential form, nothing for a vector that runs nothing,
// and otherwise the pending flattening followed by the init program
// minus the instructions that initialize skipped nets, as ranges of the
// emission-order stream built from the active groups' init segments the
// way decide builds the level ranges.
func (s *Sim) runGatedInit() {
	g := s.gate
	switch {
	case g.exec == obs.GatedSequential:
		s.InitSequential().Run(s.St)
		return
	case g.idle:
		return
	}
	// The ranges about to run may read any idle field.
	s.Flatten()
	init, _ := s.Programs()
	copy(g.initOn, g.initBase)
	for _, gi := range g.active {
		for _, si := range g.grpInits[g.grpInitOff[gi]:g.grpInitOff[gi+1]] {
			g.initOn[si>>6] |= 1 << (uint(si) & 63)
		}
	}
	n := 0
	for wi, word := range g.initOn {
		for word != 0 {
			si := wi<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			a, b := g.initSpan[2*si], g.initSpan[2*si+1]
			if n > 0 && g.initRuns[2*n-1] == a {
				g.initRuns[2*n-1] = b
			} else {
				g.initRuns[2*n], g.initRuns[2*n+1] = a, b
				n++
			}
		}
	}
	program.ExecRanges(init.Code, g.initRuns[:2*n], s.St, s.cfg.WordBits)
}

// Flatten implements engine.Gating: it rewrites the fields of every
// pending group — each went idle in some vector since the last flatten,
// after being active or after a vector of unknown activity — to the
// broadcast of their settled values: exactly the words sequential
// execution produces for a net whose cone inputs did not change. The
// settled value is the net's final bit, untouched since the group went
// idle. A field stays flat while its group stays idle, so an idle net
// costs nothing after its first flatten. A no-op when ungated or when
// nothing is pending.
func (s *Sim) Flatten() {
	g := s.gate
	if g == nil || !g.pending {
		return
	}
	mask := s.Mask()
	for b, word := range g.pend {
		g.pend[b] = 0
		for ; word != 0; word &= word - 1 {
			gi := b<<6 | bits.TrailingZeros64(word)
			for _, n := range g.grpNets[g.grpNetOff[gi]:g.grpNetOff[gi+1]] {
				var v uint64
				if s.Final(circuit.NetID(n)) {
					v = mask
				}
				for w := s.base[n]; w < s.base[n]+s.words[n]; w++ {
					s.St[w] = v
				}
			}
		}
	}
	g.pending = false
}

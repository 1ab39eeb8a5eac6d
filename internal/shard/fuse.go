package shard

import (
	"fmt"
	"sort"

	"udsim/internal/dataflow"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// Level fusion: merge adjacent levels of a shard plan so their barrier
// disappears. A merge is legal when the merged level has no cross-shard
// dependency; cross-shard read-after-writes are repaired by replicating
// the producer cluster into the consumer's shard — redundant compute
// traded for a deleted barrier, profitable whenever the copies cost
// less than one barrier crossing (BENCH_r2/r3: a crossing is worth
// hundreds to thousands of op units).
//
// A replica is a verbatim copy of the producer's instructions with its
// persistent writes renamed to private replica slots (allocated past
// the scratch arenas), so the original still publishes its results for
// consumers in later, unfused levels. A replica is only legal when the
// producer's own reads are settled before the merged level — then every
// copy computes from identical inputs and is provably bit-identical,
// which is exactly what verify rule V015 re-checks from the exported
// FusedSchedule. Copies of accumulating clusters (OpShlOr onto a field
// word initialized per vector) additionally get one seed move per
// accumulated slot, placed in an earlier level, so the copy folds into
// the same pre-level value the original reads.
//
// The pass is greedy bottom-up: a group of merged levels grows upward
// while each next level can be absorbed legally and under budget, then
// closes. Safety does not rest on this code being right: the fused
// executable is re-proved race-free by dataflow.CheckSchedule over the
// execution-ordered augmented stream before the plan is returned, and
// the same proof re-runs as verify rules V008/V012/V015.

// FuseOptions configures PartitionFused.
type FuseOptions struct {
	// BarrierOps is the per-crossing barrier cost in op units — the
	// replica budget per deleted barrier. <= 0 uses the static default
	// (see CalibrateBarrier for a measured value).
	BarrierOps int64
}

// PartitionFused is Partition followed by the level-fusion pass. The
// returned plan executes the same program with fewer barriers; it is
// bit-identical to the unfused plan and carries the augmented schedule
// (Assignment().Aug) that verify rules V008/V012/V015 check.
func PartitionFused(p *program.Program, scratchStart int32, workers int, opt FuseOptions) (*Plan, error) {
	bs, err := analyze(p, scratchStart, workers)
	if err != nil {
		return nil, err
	}
	budget := opt.BarrierOps
	if budget <= 0 {
		budget = barrierCostOps
	}
	if workers < 2 || bs.numLevels < 2 {
		pl := bs.build()
		pl.SetBarrierCost(opt.BarrierOps)
		return pl, nil
	}
	f := newFuser(bs, budget)
	f.run()
	pl, err := f.build()
	if err != nil {
		return nil, err
	}
	pl.SetBarrierCost(opt.BarrierOps)
	return pl, nil
}

// mixedShard marks a slot accessed by more than one shard in a group.
const mixedShard int32 = -2

// fusedReplica is one planned cluster copy.
type fusedReplica struct {
	src      int32           // source cluster
	shard    int32           // consumer shard the copy runs on
	newLevel int32           // fused level
	remap    map[int32]int32 // persistent write slot -> replica slot
	seeds    [][2]int32      // {replica slot, original slot} seed moves
}

type fuser struct {
	bs     *buildState
	budget int64

	// code is a mutable copy of the program with consumer reads
	// remapped to replica slots as merges commit.
	code []program.Instr

	// Per-cluster metadata (index ranges are contiguous by construction).
	lo, hi    []int32
	readOnly  [][]int32 // persistent reads outside the cluster's writes
	writes    [][]int32 // persistent writes
	seedSlots [][]int32 // written slots read before their first write

	byLevel    [][]int32
	newLevelOf []int32 // old level -> fused level
	numNew     int32

	replicas    []fusedReplica
	replicaIdx  map[[2]int32]int32 // {cluster, shard} -> replicas index
	replicaBase int32
	nextSlot    int32
	replicaCost int64
	fusedLevels int // fused levels that absorbed >= 1 neighbor

	// Group state (the run of old levels currently being merged).
	groupWrites map[int32]int32 // slot -> writer shard
	groupWriter map[int32]int32 // slot -> writer cluster
	groupReads  map[int32]int32 // slot -> reader shard or mixedShard

	// Last closed-level write tracking, for seed placement safety.
	slotLevel map[int32]int32 // slot -> fused level of last write
	slotShard map[int32]int32 // slot -> shard of that write (or mixed)
}

func newFuser(bs *buildState, budget int64) *fuser {
	p := bs.p
	stride, _ := bs.arena()
	f := &fuser{
		bs:          bs,
		budget:      budget,
		code:        append([]program.Instr(nil), p.Code...),
		lo:          make([]int32, bs.nClusters),
		hi:          make([]int32, bs.nClusters),
		readOnly:    make([][]int32, bs.nClusters),
		writes:      make([][]int32, bs.nClusters),
		seedSlots:   make([][]int32, bs.nClusters),
		byLevel:     make([][]int32, bs.numLevels),
		newLevelOf:  make([]int32, bs.numLevels),
		replicaIdx:  make(map[[2]int32]int32),
		replicaBase: int32(p.NumVars) + int32(bs.workers)*stride,
		slotLevel:   make(map[int32]int32),
		slotShard:   make(map[int32]int32),
	}
	f.nextSlot = f.replicaBase
	for i := range f.lo {
		f.lo[i] = -1
	}
	for i, c := range bs.clusterOf {
		if f.lo[c] < 0 {
			f.lo[c] = int32(i)
		}
		f.hi[c] = int32(i) + 1
	}
	for c := int32(0); c < bs.nClusters; c++ {
		f.byLevel[bs.level[c]] = append(f.byLevel[bs.level[c]], c)
		f.computeSets(c)
	}
	return f
}

// computeSets fills the cluster's persistent read/write summaries from
// the original code (static: consumer remaps never change them, which
// keeps every legality check conservative — a remapped cluster's static
// read set still names the group-written slot, so it is never treated
// as settled).
func (f *fuser) computeSets(c int32) {
	p, ss := f.bs.p, f.bs.scratchStart
	written := make(map[int32]bool)
	var rbuf []int32
	for i := f.lo[c]; i < f.hi[c]; i++ {
		in := &p.Code[i]
		if in.Writes() && in.Dst < ss {
			written[in.Dst] = true
		}
	}
	reads := make(map[int32]bool)
	seeded := make(map[int32]bool)
	nowWritten := make(map[int32]bool)
	for i := f.lo[c]; i < f.hi[c]; i++ {
		in := &p.Code[i]
		rbuf = in.ReadSlots(rbuf[:0])
		for _, s := range rbuf {
			if s >= ss {
				continue
			}
			if written[s] {
				// Reads of a slot this cluster writes, before the first
				// write: the copy must see the pre-level value through
				// its replica slot, so the slot needs a seed move. The
				// accumulate (OpShlOr onto its own Dst) is the common
				// case.
				if !nowWritten[s] {
					seeded[s] = true
				}
			} else {
				reads[s] = true
			}
		}
		if in.Writes() && in.Dst < ss {
			nowWritten[in.Dst] = true
		}
	}
	f.readOnly[c] = sortedSlots(reads)
	f.writes[c] = sortedSlots(written)
	f.seedSlots[c] = sortedSlots(seeded)
}

func sortedSlots(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// run executes the greedy bottom-up merge loop.
func (f *fuser) run() {
	cur := int32(0)
	merged := false
	f.openGroup(0)
	for l := int32(1); l < f.bs.numLevels; l++ {
		if f.tryMerge(l, cur) {
			f.newLevelOf[l] = cur
			merged = true
			continue
		}
		f.closeGroup(cur)
		if merged {
			f.fusedLevels++
			merged = false
		}
		cur++
		f.openGroup(l)
		f.newLevelOf[l] = cur
	}
	f.closeGroup(cur)
	if merged {
		f.fusedLevels++
	}
	f.numNew = cur + 1
}

func (f *fuser) openGroup(l int32) {
	f.groupWrites = make(map[int32]int32)
	f.groupWriter = make(map[int32]int32)
	f.groupReads = make(map[int32]int32)
	f.absorb(l)
}

func (f *fuser) closeGroup(cur int32) {
	for s, sh := range f.groupWrites {
		f.slotLevel[s] = cur
		f.slotShard[s] = sh
	}
}

// absorb registers level l's clusters in the group summaries. Callers
// have already proved the level merges legally (or it opens the group).
func (f *fuser) absorb(l int32) {
	sh := f.bs.shardOf
	for _, c := range f.byLevel[l] {
		for _, s := range f.writes[c] {
			f.groupWrites[s] = sh[c]
			if prev, ok := f.groupWriter[s]; ok && prev != c {
				// Accumulated by several clusters: replicating any single
				// producer would drop the others' contributions, so the
				// slot is marked never-replicable.
				f.groupWriter[s] = -1
			} else {
				f.groupWriter[s] = c
			}
		}
		for _, s := range f.readOnly[c] {
			f.mergeRead(s, sh[c])
		}
	}
}

func (f *fuser) mergeRead(s, shard int32) {
	if old, ok := f.groupReads[s]; !ok {
		f.groupReads[s] = shard
	} else if old != shard {
		f.groupReads[s] = mixedShard
	}
}

// tryMerge decides whether old level l can join the group currently at
// fused level cur, and commits the merge (replicas, seeds, consumer
// remaps, summary updates) when it can.
func (f *fuser) tryMerge(l, cur int32) bool {
	bs := f.bs
	sh := bs.shardOf

	// Writes of l against the group: write-after-write and
	// write-after-read hazards block the merge unless writer and every
	// group-side access share the writer's shard (then the per-shard
	// stream order already serializes them).
	writesL := make(map[int32]int32) // slot -> writing cluster
	for _, c := range f.byLevel[l] {
		for _, s := range f.writes[c] {
			writesL[s] = c
			if w, ok := f.groupWrites[s]; ok && w != sh[c] {
				return false
			}
			if r, ok := f.groupReads[s]; ok && r != sh[c] {
				return false
			}
		}
	}

	// Cross-shard read-after-writes: plan one replica per (producer,
	// consumer-shard) pair, checking each producer is replicable.
	type pend struct{ d, t int32 }
	var newReps []pend
	planned := make(map[[2]int32]bool)
	addedCost := int64(0)
	for _, c := range f.byLevel[l] {
		t := sh[c]
		for _, s := range f.readOnly[c] {
			d, ok := f.groupWriter[s]
			if !ok {
				continue
			}
			if d < 0 {
				// Multi-writer slot: no single replica can stand in for
				// it. All its writers share one shard (the cross-shard
				// WAW check), so the read is only safe on that shard.
				if f.groupWrites[s] != t {
					return false
				}
				continue
			}
			if sh[d] == t {
				continue
			}
			key := [2]int32{d, t}
			if _, exists := f.replicaIdx[key]; exists || planned[key] {
				continue
			}
			if !f.replicable(d, t, cur, writesL) {
				return false
			}
			planned[key] = true
			newReps = append(newReps, pend{d, t})
			addedCost += bs.cost[d] + int64(len(f.seedSlots[d]))
		}
	}
	if addedCost > f.budget {
		return false
	}

	// Commit: materialize the new replicas.
	for _, pr := range newReps {
		rep := fusedReplica{
			src:      pr.d,
			shard:    pr.t,
			newLevel: cur,
			remap:    make(map[int32]int32, len(f.writes[pr.d])),
		}
		for _, s := range f.writes[pr.d] {
			rep.remap[s] = f.nextSlot
			f.nextSlot++
		}
		for _, s := range f.seedSlots[pr.d] {
			rep.seeds = append(rep.seeds, [2]int32{rep.remap[s], s})
		}
		f.replicaIdx[[2]int32{pr.d, pr.t}] = int32(len(f.replicas))
		f.replicas = append(f.replicas, rep)
		f.replicaCost += bs.cost[pr.d] + int64(len(rep.seeds))
		for _, s := range f.readOnly[pr.d] {
			f.mergeRead(s, pr.t)
		}
	}

	// Remap level l's cross-shard reads onto the replica slots.
	ss := bs.scratchStart
	for _, c := range f.byLevel[l] {
		t := sh[c]
		remapRead := func(o int32) int32 {
			if o < 0 || o >= ss {
				return o
			}
			d, ok := f.groupWriter[o]
			if !ok || d < 0 || sh[d] == t {
				return o
			}
			return f.replicas[f.replicaIdx[[2]int32{d, t}]].remap[o]
		}
		for i := f.lo[c]; i < f.hi[c]; i++ {
			in := &f.code[i]
			if in.UsesA() {
				in.A = remapRead(in.A)
			}
			if in.UsesBSlot() {
				in.B = remapRead(in.B)
			}
		}
	}

	f.absorb(l)
	return true
}

// replicable reports whether cluster d can be copied into shard t at
// fused level cur: its reads must be settled before the merged level
// (no writer in the group or in the candidate level), and any seeded
// slot must be safe to snapshot one level earlier.
func (f *fuser) replicable(d, t, cur int32, writesL map[int32]int32) bool {
	for _, r := range f.readOnly[d] {
		if _, ok := f.groupWrites[r]; ok {
			return false
		}
		if _, ok := writesL[r]; ok {
			return false
		}
	}
	if len(f.seedSlots[d]) > 0 && cur == 0 {
		return false // no earlier level to place the seed moves in
	}
	for _, s := range f.seedSlots[d] {
		// The seed snapshots s one level early; that is only the value
		// the original accumulates into if nothing else writes s first.
		if wc, ok := f.groupWriter[s]; ok && wc != d {
			return false
		}
		if wc, ok := writesL[s]; ok && wc != d {
			return false
		}
		// A write to s in the immediately preceding fused level must be
		// on the seed's own shard, or the seed read races with it.
		if lv, ok := f.slotLevel[s]; ok && lv == cur-1 && f.slotShard[s] != t {
			return false
		}
	}
	return true
}

// build assembles the fused executable, the per-instruction assignment,
// and the augmented schedule, then re-proves the whole thing race-free.
func (f *fuser) build() (*Plan, error) {
	bs := f.bs
	p, workers := bs.p, bs.workers
	ss := bs.scratchStart
	n := len(p.Code)
	stride, scratchBase := bs.arena()
	numNew := f.numNew

	pl := &Plan{
		wordBits:     p.WordBits,
		numVars:      p.NumVars,
		scratchStart: ss,
		workers:      workers,
		stride:       stride,
		levels:       make([][][]program.Instr, numNew),
		extraSlots:   int(f.nextSlot - f.replicaBase),
	}
	for l := range pl.levels {
		pl.levels[l] = make([][]program.Instr, workers)
	}
	assign := &verify.ShardAssignment{
		Workers: workers,
		Levels:  int(numNew),
		Level:   make([]int32, n),
		Shard:   make([]int32, n),
	}
	aug := &verify.FusedSchedule{
		Levels:          int(numNew),
		BarriersDeleted: int(bs.numLevels - numNew),
	}

	// Emission entries per (fused level, shard): original clusters and
	// replicas, ordered by the source's old level then stream position —
	// so same-shard dependencies between the merged halves, and every
	// replica→consumer edge (the consumer is always at a later old
	// level), point forward in the per-shard slice.
	type entry struct {
		oldLevel, pos int32
		rep           int32 // -1 = original cluster
		cluster       int32
	}
	cells := make([][][]entry, numNew)
	for l := range cells {
		cells[l] = make([][]entry, workers)
	}
	for c := int32(0); c < bs.nClusters; c++ {
		nl := f.newLevelOf[bs.level[c]]
		w := bs.shardOf[c]
		cells[nl][w] = append(cells[nl][w], entry{bs.level[c], f.lo[c], -1, c})
	}
	for ri := range f.replicas {
		rep := &f.replicas[ri]
		src := rep.src
		cells[rep.newLevel][rep.shard] = append(cells[rep.newLevel][rep.shard],
			entry{bs.level[src], f.lo[src], int32(ri), src})
	}
	// Seed moves go at the end of the preceding level's target-shard
	// slice: after any same-shard write of the seeded slot, before the
	// barrier that orders them ahead of the copy.
	type seedInstr struct {
		rep  int32
		pair [2]int32
	}
	seedsAt := make(map[[2]int32][]seedInstr)
	for ri := range f.replicas {
		rep := &f.replicas[ri]
		for _, pr := range rep.seeds {
			key := [2]int32{rep.newLevel - 1, rep.shard}
			seedsAt[key] = append(seedsAt[key], seedInstr{int32(ri), pr})
		}
	}

	clusterAug := make([][2]int, bs.nClusters) // aug range of each original
	repAug := make([][2]int, len(f.replicas))
	repSeeds := make([][]int, len(f.replicas))
	loads := make([]int64, workers)
	var totalCost, bulkCost int64
	for _, in := range p.Code {
		totalCost += OpCost(in.Op)
	}

	arenaRemap := func(in program.Instr, w int32) program.Instr {
		if workers > 1 {
			nv := int32(p.NumVars)
			if in.Writes() && in.Dst >= ss && in.Dst < nv {
				in.Dst += scratchBase(w)
			}
			if in.UsesA() && in.A >= ss && in.A < nv {
				in.A += scratchBase(w)
			}
			if in.UsesBSlot() && in.B >= ss && in.B < nv {
				in.B += scratchBase(w)
			}
		}
		return in
	}
	emit := func(nl, w int32, in program.Instr) {
		pl.levels[nl][w] = append(pl.levels[nl][w], arenaRemap(in, w))
		aug.Code = append(aug.Code, in)
		aug.Level = append(aug.Level, nl)
		aug.Shard = append(aug.Shard, w)
		loads[w] += OpCost(in.Op)
	}

	for nl := int32(0); nl < numNew; nl++ {
		for i := range loads {
			loads[i] = 0
		}
		for w := int32(0); w < int32(workers); w++ {
			cell := cells[nl][w]
			sort.Slice(cell, func(a, b int) bool {
				if cell[a].oldLevel != cell[b].oldLevel {
					return cell[a].oldLevel < cell[b].oldLevel
				}
				if cell[a].pos != cell[b].pos {
					return cell[a].pos < cell[b].pos
				}
				return cell[a].rep < cell[b].rep
			})
			for _, e := range cell {
				c := e.cluster
				if e.rep < 0 {
					clusterAug[c] = [2]int{len(aug.Code), len(aug.Code) + int(f.hi[c]-f.lo[c])}
					for i := f.lo[c]; i < f.hi[c]; i++ {
						in := f.code[i]
						assign.Level[i] = nl
						assign.Shard[i] = w
						emit(nl, w, in)
					}
					continue
				}
				rep := &f.replicas[e.rep]
				repAug[e.rep] = [2]int{len(aug.Code), len(aug.Code) + int(f.hi[c]-f.lo[c])}
				for i := f.lo[c]; i < f.hi[c]; i++ {
					in := f.code[i]
					if in.Writes() {
						if r, ok := rep.remap[in.Dst]; ok {
							in.Dst = r
						}
					}
					if in.UsesA() {
						if r, ok := rep.remap[in.A]; ok {
							in.A = r
						}
					}
					if in.UsesBSlot() {
						if r, ok := rep.remap[in.B]; ok {
							in.B = r
						}
					}
					emit(nl, w, in)
				}
			}
			for _, si := range seedsAt[[2]int32{nl, w}] {
				repSeeds[si.rep] = append(repSeeds[si.rep], len(aug.Code))
				emit(nl, w, program.Instr{
					Op: program.OpMove, Dst: si.pair[0], A: si.pair[1], B: program.None,
				})
			}
		}
		max := int64(0)
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		bulkCost += max
	}

	for ri := range f.replicas {
		rep := &f.replicas[ri]
		orig := make([]int32, 0, len(rep.remap))
		for s := range rep.remap {
			orig = append(orig, s)
		}
		sort.Slice(orig, func(a, b int) bool { return orig[a] < orig[b] })
		v := verify.Replica{
			SrcLo: clusterAug[rep.src][0], SrcHi: clusterAug[rep.src][1],
			DstLo: repAug[ri][0], DstHi: repAug[ri][1],
			Level: rep.newLevel, Shard: rep.shard,
			Seeds: repSeeds[ri],
		}
		for _, s := range orig {
			v.Orig = append(v.Orig, s)
			v.Repl = append(v.Repl, rep.remap[s])
		}
		aug.Replicas = append(aug.Replicas, v)
	}
	assign.Aug = aug
	pl.assign = assign
	pl.stats = Stats{
		Instrs:          n,
		Clusters:        int(bs.nClusters),
		Levels:          int(numNew),
		TotalCost:       totalCost,
		BulkCost:        bulkCost,
		FusedLevels:     f.fusedLevels,
		BarriersDeleted: int(bs.numLevels - numNew),
		Replicas:        len(f.replicas),
		ReplicaCost:     f.replicaCost,
	}

	// Final gate: the fused stream must re-prove race-free under the
	// same happens-before model verify rule V012 uses. Fusion bugs
	// surface here as hard errors, never as corrupted simulations.
	races, err := dataflow.CheckSchedule(aug.Code, ss, &dataflow.Schedule{
		Workers: workers, Levels: aug.Levels, Level: aug.Level, Shard: aug.Shard,
	})
	if err != nil {
		return nil, fmt.Errorf("shard: fused plan: %w", err)
	}
	if len(races) > 0 {
		return nil, fmt.Errorf("shard: fused plan is racy: %v", races[0])
	}
	return pl, nil
}

// Package shard partitions a compiled simulation program into per-level,
// load-balanced shards and executes them across cores with bit-identical
// results.
//
// The paper's compiled techniques turn event-driven simulation into a
// flat, branch-free instruction stream; this package turns that stream
// into a bulk-synchronous parallel schedule. Partition groups the stream
// into atomic clusters (a gate's emission, glued together by its scratch
// temporaries and fold continuations), levels the clusters by their
// read/write dependencies on persistent state, and balances each level
// across a fixed number of shards with an op-class cost model. Engine then
// executes the plan on a persistent worker pool, one barrier per level.
//
// Scratch slots (at or above the scratch boundary) are reused by every
// gate in the sequential stream, which would serialize all clusters. The
// planner instead gives each shard a private scratch arena: cluster
// formation guarantees a scratch value is produced and consumed within one
// cluster, so remapping scratch operands to per-shard arenas preserves
// semantics exactly while removing every cross-cluster scratch hazard.
package shard

import (
	"fmt"
	"sort"

	"udsim/internal/dataflow"
	"udsim/internal/program"
	"udsim/internal/verify"
)

// Strategy selects how a compiled simulator executes its instruction
// stream.
type Strategy int

const (
	// Sequential is the classic single-core dispatch loop.
	Sequential Strategy = iota
	// Sharded executes the level-sharded plan on a persistent worker
	// pool, one barrier per level, bit-identical to Sequential.
	Sharded
	// VectorBatch runs independent contiguous blocks of the input-vector
	// stream concurrently on cloned state arenas — the right strategy for
	// shallow or narrow programs where per-level barriers would dominate.
	// Blocks are independent streams, like the PC-set method's 64 lanes.
	VectorBatch
	// Auto picks VectorBatch on more than one worker and Sequential on
	// one (see Recommend).
	Auto
	// ActivityGated is the Sharded plan plus per-vector activity
	// gating: the caller diffs each vector's primary inputs against the
	// previous vector and skips every shard cell — and every whole
	// level — whose static input cone is untouched (Maurer's Table 3:
	// most gates are idle on most vectors), running the rest on the
	// caller alone (Engine.SetGate). Bit-identical to Sequential; the
	// first vector after a reset conservatively runs everything.
	ActivityGated
	// Native runs the circuit's validated codegen output as a supervised
	// out-of-process subprocess (internal/native): the generated Go is
	// `go build`-ed in a temp dir and spoken to over a length-prefixed,
	// CRC-checked vector protocol, with respawn/quarantine fallback to
	// the in-process engine. The compiled engines themselves reject this
	// strategy — the facade intercepts it and wraps the supervisor.
	Native
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case Sharded:
		return "sharded"
	case VectorBatch:
		return "vector-batch"
	case Auto:
		return "auto"
	case ActivityGated:
		return "activity-gated"
	case Native:
		return "native"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy is the inverse of String, accepting the CLI spellings.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "sequential", "seq":
		return Sequential, nil
	case "sharded", "shard":
		return Sharded, nil
	case "vector-batch", "batch":
		return VectorBatch, nil
	case "auto":
		return Auto, nil
	case "activity-gated", "gated":
		return ActivityGated, nil
	case "native":
		return Native, nil
	}
	return 0, fmt.Errorf("shard: unknown strategy %q", s)
}

// OpCost weighs an instruction in the plan's cost model: plain word
// operations cost 1, shift/carry operations cost 2 (two reads, a shift
// and a merge). Load balancing, EstimatedSpeedup and the activity-gated
// strategy's per-vector executor choice all price code with it.
func OpCost(op program.Op) int64 {
	switch op {
	case program.OpNop:
		return 0
	case program.OpShlOr, program.OpShlMove, program.OpShrMove:
		return 2
	}
	return 1
}

// Stats summarizes a plan for the strategy picker and the harness tables.
type Stats struct {
	// Instrs is the number of partitioned instructions.
	Instrs int
	// Clusters is the number of atomic instruction clusters.
	Clusters int
	// Levels is the number of bulk-synchronous levels (barriers per Run).
	Levels int
	// TotalCost is the sequential cost of the whole program in op units.
	TotalCost int64
	// BulkCost is the bulk-synchronous critical path: the sum over levels
	// of the most expensive shard in that level.
	BulkCost int64
}

// Width returns the average parallel width in op units per level — the
// denominator of the critical-path/width ratio.
func (s Stats) Width() float64 {
	if s.Levels == 0 {
		return 0
	}
	return float64(s.TotalCost) / float64(s.Levels)
}

// barrierCostOps approximates one barrier crossing in op units — the
// default used when no measured cost has been installed with
// Plan.SetBarrierCost. It deliberately errs low so that plans built
// directly in tests stay deterministic; BENCH_r2/r3 show a real crossing
// on a loaded or single-core machine costs far more (see
// CalibrateBarrier).
const barrierCostOps = 150

// Plan is a static level-sharded schedule for one program: per level, one
// instruction slice per shard, with scratch operands remapped into
// per-shard private arenas.
type Plan struct {
	wordBits     int
	numVars      int
	scratchStart int32
	workers      int
	stride       int32 // per-shard scratch arena size, cache-line padded
	levels       [][][]program.Instr
	assign       *verify.ShardAssignment
	stats        Stats
	// barrierOps, when > 0, is a measured per-crossing barrier cost in op
	// units that replaces the barrierCostOps constant in the cost model.
	barrierOps int64
}

// Partition builds a load-balanced shard plan for p across the given
// number of shards. Slots at or above scratchStart are per-vector scratch
// (written before read, reused between gates); everything below is
// persistent state. The plan is valid for any state array of at least
// Plan.StateSize() words whose first p.NumVars words are the program's
// state — Engine.Run on such an array is bit-identical to p.Run on its
// prefix.
func Partition(p *program.Program, scratchStart int32, workers int) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if scratchStart < 0 || int(scratchStart) > p.NumVars {
		return nil, fmt.Errorf("shard: scratch boundary %d outside [0,%d]", scratchStart, p.NumVars)
	}
	if workers < 1 {
		workers = 1
	}
	n := len(p.Code)

	// ---- Cluster formation: union every instruction with the producer
	// of any scratch value it reads and with the producer of its own
	// destination when it continues or accumulates into it. Clusters are
	// then widened to maximal contiguous runs so all dependencies between
	// clusters point forward in the stream.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	lastWriter := make([]int32, p.NumVars)
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	var rbuf []int32
	for i := range p.Code {
		in := &p.Code[i]
		rbuf = in.ReadSlots(rbuf[:0])
		for _, s := range rbuf {
			if w := lastWriter[s]; w >= 0 && (s >= scratchStart || s == in.Dst) {
				union(int32(i), w)
			}
		}
		if in.Writes() {
			lastWriter[in.Dst] = int32(i)
		}
	}
	// Interval sweep: extend each union-find set to its [min,max] index
	// range and merge overlapping ranges into contiguous clusters.
	end := make([]int32, n) // per root: maximal member index
	for i := n - 1; i >= 0; i-- {
		r := find(int32(i))
		if end[r] == 0 && int32(i) != r {
			end[r] = int32(i)
		} else if end[r] < int32(i) {
			end[r] = int32(i)
		}
	}
	clusterOf := make([]int32, n)
	nClusters := int32(0)
	curEnd := int32(-1)
	for i := 0; i < n; i++ {
		if int32(i) > curEnd {
			nClusters++
			curEnd = int32(i)
		}
		if e := end[find(int32(i))]; e > curEnd {
			curEnd = e
		}
		clusterOf[i] = nClusters - 1
	}

	// ---- Leveling: a cluster must run strictly after every earlier
	// cluster it has a read-after-write, write-after-read or
	// write-after-write dependency with on persistent slots. Scratch
	// slots carry no cross-cluster dependencies: reads were unioned into
	// the writer's cluster, and writes are renamed into per-shard arenas.
	level := make([]int32, nClusters)
	cost := make([]int64, nClusters)
	lastWriteLevel := make([]int32, p.NumVars)
	lastWriteCluster := make([]int32, p.NumVars)
	readersMax := make([]int32, p.NumVars)
	for i := range lastWriteLevel {
		lastWriteLevel[i] = -1
		lastWriteCluster[i] = -1
		readersMax[i] = -1
	}
	numLevels := int32(0)
	for lo := 0; lo < n; {
		c := clusterOf[lo]
		hi := lo
		for hi < n && clusterOf[hi] == c {
			hi++
		}
		lvl := int32(0)
		for i := lo; i < hi; i++ {
			in := &p.Code[i]
			rbuf = in.ReadSlots(rbuf[:0])
			for _, s := range rbuf {
				if s >= scratchStart {
					continue
				}
				if wc := lastWriteCluster[s]; wc >= 0 && wc != c && lastWriteLevel[s]+1 > lvl {
					lvl = lastWriteLevel[s] + 1
				}
			}
			if in.Writes() && in.Dst < scratchStart {
				if wc := lastWriteCluster[in.Dst]; wc >= 0 && wc != c && lastWriteLevel[in.Dst]+1 > lvl {
					lvl = lastWriteLevel[in.Dst] + 1
				}
				if rm := readersMax[in.Dst]; rm >= 0 && rm+1 > lvl {
					lvl = rm + 1
				}
			}
		}
		level[c] = lvl
		if lvl+1 > numLevels {
			numLevels = lvl + 1
		}
		for i := lo; i < hi; i++ {
			in := &p.Code[i]
			cost[c] += OpCost(in.Op)
			rbuf = in.ReadSlots(rbuf[:0])
			for _, s := range rbuf {
				if s < scratchStart && readersMax[s] < lvl {
					readersMax[s] = lvl
				}
			}
			if in.Writes() && in.Dst < scratchStart {
				lastWriteLevel[in.Dst] = lvl
				lastWriteCluster[in.Dst] = c
				readersMax[in.Dst] = -1
			}
		}
		lo = hi
	}

	// ---- Shard assignment: longest-processing-time within each level.
	shardOf := make([]int32, nClusters)
	byLevel := make([][]int32, numLevels)
	for c := int32(0); c < nClusters; c++ {
		byLevel[level[c]] = append(byLevel[level[c]], c)
	}
	load := make([]int64, workers)
	bulkCost := int64(0)
	for _, clusters := range byLevel {
		sort.SliceStable(clusters, func(a, b int) bool { return cost[clusters[a]] > cost[clusters[b]] })
		for i := range load {
			load[i] = 0
		}
		for _, c := range clusters {
			best := 0
			for w := 1; w < workers; w++ {
				if load[w] < load[best] {
					best = w
				}
			}
			shardOf[c] = int32(best)
			load[best] += cost[c]
		}
		max := int64(0)
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		bulkCost += max
	}
	// ---- Assembly: per level, per shard, a contiguous copy of the member
	// clusters' instructions in original order, with scratch operands
	// remapped into the shard's private arena (cache-line padded).
	stride := int32(0)
	if workers > 1 {
		stride = (int32(p.NumVars) - scratchStart + 7) &^ 7
	}
	scratchBase := func(w int32) int32 { return int32(p.NumVars) + w*stride - scratchStart }
	pl := &Plan{
		wordBits:     p.WordBits,
		numVars:      p.NumVars,
		scratchStart: scratchStart,
		workers:      workers,
		stride:       stride,
		levels:       make([][][]program.Instr, numLevels),
	}
	for l := range pl.levels {
		pl.levels[l] = make([][]program.Instr, workers)
	}
	assign := &verify.ShardAssignment{
		Workers: workers,
		Levels:  int(numLevels),
		Level:   make([]int32, n),
		Shard:   make([]int32, n),
	}
	var totalCost int64
	for i := 0; i < n; i++ {
		c := clusterOf[i]
		l, w := level[c], shardOf[c]
		assign.Level[i] = l
		assign.Shard[i] = w
		in := p.Code[i]
		totalCost += OpCost(in.Op)
		if workers > 1 {
			if in.Writes() && in.Dst >= scratchStart {
				in.Dst += scratchBase(w)
			}
			if in.UsesA() && in.A >= scratchStart {
				in.A += scratchBase(w)
			}
			if in.UsesBSlot() && in.B >= scratchStart {
				in.B += scratchBase(w)
			}
		}
		pl.levels[l][w] = append(pl.levels[l][w], in)
	}
	pl.assign = assign
	pl.stats = Stats{
		Instrs:    n,
		Clusters:  int(nClusters),
		Levels:    int(numLevels),
		TotalCost: totalCost,
		BulkCost:  bulkCost,
	}
	return pl, nil
}

// StateSize returns the state-array length Engine.Run requires: the
// program's NumVars plus one private scratch arena per shard.
func (p *Plan) StateSize() int { return p.numVars + p.workers*int(p.stride) }

// SetBarrierCost installs a measured per-crossing barrier cost in op
// units (see CalibrateBarrier); <= 0 restores the static default. It
// feeds EstimatedSpeedup.
func (p *Plan) SetBarrierCost(ops int64) {
	if ops < 0 {
		ops = 0
	}
	p.barrierOps = ops
}

// BarrierCost returns the per-crossing barrier cost the plan's cost
// model uses: the measured value when one was installed, otherwise the
// static default.
func (p *Plan) BarrierCost() int64 {
	if p.barrierOps > 0 {
		return p.barrierOps
	}
	return barrierCostOps
}

// Workers returns the number of shards per level.
func (p *Plan) Workers() int { return p.workers }

// CellCode returns the instruction slice worker w executes at level l —
// the exact stream (and order) the engine runs, which the activity-gated
// strategy segments into per-cone instruction ranges (Engine.SetGate).
// The returned slice is the plan's own storage; callers must not mutate it.
func (p *Plan) CellCode(l, w int) []program.Instr { return p.levels[l][w] }

// Stats returns the plan's partition statistics.
func (p *Plan) Stats() Stats { return p.stats }

// Assignment exports the per-instruction (level, shard) assignment for
// static verification (rule V012 in package verify).
func (p *Plan) Assignment() *verify.ShardAssignment { return p.assign }

// Races runs the happens-before race detector over the plan for the
// given program — the same proof as verify rule V012, available directly
// to engine code and tests. A nil result means every conflicting access
// pair is ordered by the plan's barrier/shard structure; the program must
// be the one the plan was partitioned from.
func (p *Plan) Races(prog *program.Program) ([]dataflow.Race, error) {
	a := p.assign
	return dataflow.CheckSchedule(prog.Code, p.scratchStart, &dataflow.Schedule{
		Workers: a.Workers, Levels: a.Levels, Level: a.Level, Shard: a.Shard,
	})
}

// EstimatedSpeedup predicts the sharded engine's speedup over sequential
// execution from the cost model: the sequential cost divided by the
// bulk-synchronous critical path plus one barrier per level, using the
// measured barrier cost when one was installed (SetBarrierCost).
func (p *Plan) EstimatedSpeedup() float64 {
	if p.stats.TotalCost == 0 {
		return 1
	}
	par := float64(p.stats.BulkCost)
	if p.workers > 1 {
		par += float64(p.stats.Levels) * float64(p.BarrierCost())
	}
	return float64(p.stats.TotalCost) / par
}

// Recommend resolves the Auto strategy for a worker count: VectorBatch
// on more than one worker, Sequential on one. It never picks Sharded:
// measured at 2 workers on the ISCAS-85 profiles, sharded execution ran
// slower than sequential in every cell, even where EstimatedSpeedup
// cleared 1.3 (4-9x slower on the PC-set compiles of c5315, c6288 and
// c7552).
func Recommend(workers int) Strategy {
	if workers <= 1 {
		return Sequential
	}
	return VectorBatch
}

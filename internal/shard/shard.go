// Package shard levels a compiled simulation program for activity-gated
// execution and runs vector streams concurrently.
//
// The paper's compiled techniques turn event-driven simulation into a
// flat, branch-free instruction stream. Partition groups that stream
// into atomic clusters (a gate's emission, glued together by its scratch
// temporaries and fold continuations) and levels the clusters by their
// read/write dependencies on persistent state, so that each level is one
// instruction slice in which any cluster may be skipped on its own.
// Engine runs a plan's levels on the caller, skipping what the activity
// gates close. Pool runs the contiguous blocks of a vector stream
// concurrently, one worker per block (the vector-batch strategy).
package shard

import (
	"fmt"

	"udsim/internal/program"
	"udsim/internal/verify"
)

// Strategy selects how a compiled simulator executes its instruction
// stream.
type Strategy int

const (
	// Sequential is the classic single-core dispatch loop.
	Sequential Strategy = iota
	// VectorBatch runs contiguous blocks of the input-vector stream
	// concurrently on cloned state arenas, each block seeded with the
	// settled state of the vector before it, so the stream stays one
	// coherent stream, bit-identical to Sequential.
	VectorBatch
	// Auto picks VectorBatch on more than one worker and Sequential on
	// one.
	Auto
	// ActivityGated levels the program and gates it per vector: the
	// caller diffs each vector's primary inputs against the previous
	// vector and skips every instruction range — and every whole level —
	// whose static input cone is untouched (Maurer's Table 3: most gates
	// are idle on most vectors), running the rest on the caller alone
	// (Engine.SetGate). Bit-identical to Sequential; the first vector
	// after a reset conservatively runs everything.
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
// and a merge). The activity-gated strategy's per-vector executor choice
// prices code with it.
func OpCost(op program.Op) int64 {
	switch op {
	case program.OpNop:
		return 0
	case program.OpShlOr, program.OpShlMove, program.OpShrMove:
		return 2
	}
	return 1
}

// Stats summarizes a plan for the harness tables.
type Stats struct {
	// Instrs is the number of partitioned instructions.
	Instrs int
	// Clusters is the number of atomic instruction clusters.
	Clusters int
	// Levels is the number of levels.
	Levels int
	// TotalCost is the cost of the whole program in op units.
	TotalCost int64
}

// Plan is a static leveled schedule for one program: per level, the
// instructions of its clusters in program order.
type Plan struct {
	wordBits     int
	scratchStart int32
	levels       [][]program.Instr
	assign       *verify.ShardAssignment
	stats        Stats
}

// Partition levels p. Slots at or above scratchStart are per-vector
// scratch (written before read, reused between gates); everything below
// is persistent state. Running the levels in order, each level's
// instructions in program order, is bit-identical to p.Run, and so is
// any run that skips only clusters whose outputs would not change.
func Partition(p *program.Program, scratchStart int32) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if scratchStart < 0 || int(scratchStart) > p.NumVars {
		return nil, fmt.Errorf("shard: scratch boundary %d outside [0,%d]", scratchStart, p.NumVars)
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
	// the writer's cluster, and clusters run whole, one after another.
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

	// ---- Assembly: per level, a contiguous copy of the member clusters'
	// instructions in original order.
	pl := &Plan{
		wordBits:     p.WordBits,
		scratchStart: scratchStart,
		levels:       make([][]program.Instr, numLevels),
	}
	assign := &verify.ShardAssignment{
		Workers: 1,
		Levels:  int(numLevels),
		Level:   make([]int32, n),
		Shard:   make([]int32, n),
	}
	var totalCost int64
	for i := 0; i < n; i++ {
		l := level[clusterOf[i]]
		assign.Level[i] = l
		totalCost += OpCost(p.Code[i].Op)
		pl.levels[l] = append(pl.levels[l], p.Code[i])
	}
	pl.assign = assign
	pl.stats = Stats{
		Instrs:    n,
		Clusters:  int(nClusters),
		Levels:    int(numLevels),
		TotalCost: totalCost,
	}
	return pl, nil
}

// LevelCode returns the instructions of level l — the exact stream (and
// order) the engine runs, which the activity-gated strategy segments
// into per-cone instruction ranges (Engine.SetGate). The returned slice
// is the plan's own storage; callers must not mutate it.
func (p *Plan) LevelCode(l int) []program.Instr { return p.levels[l] }

// Stats returns the plan's partition statistics.
func (p *Plan) Stats() Stats { return p.stats }

// Assignment exports the per-instruction level assignment for static
// verification (rule V012 in package verify); every instruction is on
// shard 0.
func (p *Plan) Assignment() *verify.ShardAssignment { return p.assign }

package obs

import (
	"fmt"
	"time"
)

// LevelStat is one bulk-synchronous level's per-shard execution profile.
type LevelStat struct {
	// ShardNanos[w] is worker w's accumulated busy time in this level.
	ShardNanos []int64 `json:"shard_nanos"`
	// ShardInstrs[w] is the instructions worker w executed in this level.
	ShardInstrs []int64 `json:"shard_instrs"`
}

// Nanos is the level's total busy time across shards.
func (l *LevelStat) Nanos() int64 {
	var t int64
	for _, v := range l.ShardNanos {
		t += v
	}
	return t
}

// Instrs is the level's total instruction count across shards.
func (l *LevelStat) Instrs() int64 {
	var t int64
	for _, v := range l.ShardInstrs {
		t += v
	}
	return t
}

// WorkerStat is one worker's stream-level execution profile.
type WorkerStat struct {
	// BusyNanos is time spent executing level slices.
	BusyNanos int64 `json:"busy_nanos"`
	// Instrs is the total instructions the worker executed.
	Instrs int64 `json:"instrs"`
}

// Snapshot is a coherent copy of an Observer's counters. It is plain
// data: safe to retain, merge, serialize or diff after the observer
// moves on.
type Snapshot struct {
	Engine  string `json:"engine"`
	Config  Config `json:"config"`
	Levels  int    `json:"levels"`
	Workers int    `json:"workers"`

	// WallNanos is the wall time between Attach and Snapshot — the
	// denominator of the stream-level rates.
	WallNanos int64 `json:"wall_nanos"`

	Vectors   int64 `json:"vectors"`
	Runs      int64 `json:"runs"`
	RunNanos  int64 `json:"run_nanos"`
	InitRuns  int64 `json:"init_runs"`
	InitNanos int64 `json:"init_nanos"`

	// Instrs is the number of simulation-program instructions executed
	// (summed from the level cells); InitInstrs counts initialization
	// instructions (derived: runs × program size).
	Instrs     int64 `json:"instrs"`
	InitInstrs int64 `json:"init_instrs"`

	// Words is the state-array words touched and Scratch the scratch-
	// region operand references, both derived from the programs' static
	// traffic × run counts.
	Words   int64 `json:"words"`
	Scratch int64 `json:"scratch"`

	// Activity gating: ShardsSkipped counts shard level-slices elided
	// because their input cone was untouched, GatingNanos the bookkeeping
	// time the gating decisions cost, and GatedVectors the gated vectors
	// per executor (indexed and named like GatedExecutors).
	ShardsSkipped int64                    `json:"shards_skipped"`
	GatingNanos   int64                    `json:"gating_overhead_ns"`
	GatedVectors  [NumGatedExecutors]int64 `json:"gated_vectors"`

	Level  []LevelStat  `json:"level"`
	Worker []WorkerStat `json:"worker"`

	// Activity profile (nil unless Config.Activity): Steps[t] is the
	// number of net value changes observed at time step t across
	// ActivityVectors scanned vectors; NetToggles/NetGlitches are the
	// per-net totals (glitches = transitions beyond the first per
	// vector), bridging to internal/activity's Report.
	Steps           []int64 `json:"steps,omitempty"`
	NetToggles      []int64 `json:"net_toggles,omitempty"`
	NetGlitches     []int64 `json:"net_glitches,omitempty"`
	ActivityVectors int64   `json:"activity_vectors"`

	// Guard is the resilience-event section (see guard.go); all zeros
	// unless the engine runs guarded.
	Guard GuardStats `json:"guard"`

	// Native is the subprocess-supervisor section (see native.go); all
	// zeros unless the engine runs the native backend.
	Native NativeStats `json:"native"`
}

// Snapshot copies the counters into a coherent read-only view. It
// allocates (it is not part of the steady state) and may be called
// concurrently with Add* hooks — each counter is read atomically, so a
// snapshot taken mid-run is a consistent set of monotone lower bounds.
func (o *Observer) Snapshot() *Snapshot {
	s := &Snapshot{
		Engine:    o.shape.Engine,
		Config:    o.cfg,
		Levels:    o.shape.Levels,
		Workers:   o.shape.Workers,
		Vectors:   o.vectors.Load(),
		Runs:      o.runs.Load(),
		RunNanos:  o.runNanos.Load(),
		InitRuns:  o.initRuns.Load(),
		InitNanos: o.initNanos.Load(),
		Guard:     o.guardStats(),
		Native:    o.nativeStats(),

		ShardsSkipped: o.shardsSkipped.Load(),
		GatingNanos:   o.gatingNanos.Load(),
	}
	for i := range o.gated {
		s.GatedVectors[i] = o.gated[i].Load()
	}
	if !o.start.IsZero() {
		s.WallNanos = int64(time.Since(o.start))
	}
	s.InitInstrs = s.InitRuns * int64(o.shape.InitInstrs)
	s.Words = s.Runs*o.shape.SimWords + s.InitRuns*o.shape.InitWords
	s.Scratch = s.Runs * o.shape.SimScratch
	if o.cells != nil {
		s.Level = make([]LevelStat, o.shape.Levels)
		s.Worker = make([]WorkerStat, o.shape.Workers)
		for l := range s.Level {
			s.Level[l].ShardNanos = make([]int64, o.shape.Workers)
			s.Level[l].ShardInstrs = make([]int64, o.shape.Workers)
		}
		for w := 0; w < o.shape.Workers; w++ {
			for l := 0; l < o.shape.Levels; l++ {
				c := &o.cells[w*o.shape.Levels+l]
				n, i := c.nanos.Load(), c.instrs.Load()
				s.Level[l].ShardNanos[w] = n
				s.Level[l].ShardInstrs[w] = i
				s.Worker[w].Instrs += i
				s.Instrs += i
			}
			s.Worker[w].BusyNanos = o.workers[w].busy.Load()
		}
	}
	if o.steps != nil {
		s.Steps = make([]int64, len(o.steps))
		for t := range o.steps {
			s.Steps[t] = o.steps[t].Load()
		}
		s.NetToggles = make([]int64, len(o.netToggles))
		s.NetGlitches = make([]int64, len(o.netGlitches))
		for n := range o.netToggles {
			s.NetToggles[n] = o.netToggles[n].Load()
			s.NetGlitches[n] = o.netGlitches[n].Load()
		}
		s.ActivityVectors = o.actVectors.Load()
	}
	return s
}

// VectorsPerSec is the stream throughput over the observation window.
func (s *Snapshot) VectorsPerSec() float64 {
	if s.WallNanos <= 0 {
		return 0
	}
	return float64(s.Vectors) / (float64(s.WallNanos) / 1e9)
}

// BusyNanos sums every worker's busy time.
func (s *Snapshot) BusyNanos() int64 {
	var t int64
	for i := range s.Worker {
		t += s.Worker[i].BusyNanos
	}
	return t
}

// BarrierWaitNanos is always 0: no executor waits at a barrier. It is
// kept for perfbench, which reports it as shard.barrier_wait_s.
func (s *Snapshot) BarrierWaitNanos() int64 { return 0 }

// TotalToggles sums the per-net toggle counts of the activity profile.
func (s *Snapshot) TotalToggles() int64 {
	var t int64
	for _, v := range s.NetToggles {
		t += v
	}
	return t
}

// TotalGlitches sums the per-net glitch counts of the activity profile.
func (s *Snapshot) TotalGlitches() int64 {
	var t int64
	for _, v := range s.NetGlitches {
		t += v
	}
	return t
}

// Merge folds t's counters into s. Snapshots must come from observers
// attached with the same shape (engine, levels, workers, activity
// dimensions); wall time takes the maximum rather than the sum, since
// merged windows overlap in the vector-batch use case.
func (s *Snapshot) Merge(t *Snapshot) error {
	if s.Engine != t.Engine || s.Levels != t.Levels || s.Workers != t.Workers ||
		len(s.Steps) != len(t.Steps) || len(s.NetToggles) != len(t.NetToggles) {
		return fmt.Errorf("obs: merging snapshots of different shapes (%s %dx%d vs %s %dx%d)",
			s.Engine, s.Levels, s.Workers, t.Engine, t.Levels, t.Workers)
	}
	if t.WallNanos > s.WallNanos {
		s.WallNanos = t.WallNanos
	}
	s.Vectors += t.Vectors
	s.ShardsSkipped += t.ShardsSkipped
	s.GatingNanos += t.GatingNanos
	for i := range s.GatedVectors {
		s.GatedVectors[i] += t.GatedVectors[i]
	}
	s.Runs += t.Runs
	s.RunNanos += t.RunNanos
	s.InitRuns += t.InitRuns
	s.InitNanos += t.InitNanos
	s.Instrs += t.Instrs
	s.InitInstrs += t.InitInstrs
	s.Words += t.Words
	s.Scratch += t.Scratch
	for l := range s.Level {
		for w := range s.Level[l].ShardNanos {
			s.Level[l].ShardNanos[w] += t.Level[l].ShardNanos[w]
			s.Level[l].ShardInstrs[w] += t.Level[l].ShardInstrs[w]
		}
	}
	for w := range s.Worker {
		s.Worker[w].BusyNanos += t.Worker[w].BusyNanos
		s.Worker[w].Instrs += t.Worker[w].Instrs
	}
	for i := range s.Steps {
		s.Steps[i] += t.Steps[i]
	}
	for n := range s.NetToggles {
		s.NetToggles[n] += t.NetToggles[n]
		s.NetGlitches[n] += t.NetGlitches[n]
	}
	s.ActivityVectors += t.ActivityVectors
	s.Guard.merge(&t.Guard)
	s.Native.merge(&t.Native)
	return nil
}

package obs

import (
	"fmt"
	"time"
)

// LevelStat is one level's execution profile.
type LevelStat struct {
	// Nanos is the level's accumulated busy time.
	Nanos int64 `json:"nanos"`
	// Instrs is the instructions executed in the level.
	Instrs int64 `json:"instrs"`
}

// Snapshot is a coherent copy of an Observer's counters. It is plain
// data: safe to retain, merge, serialize or diff after the observer
// moves on.
type Snapshot struct {
	Engine string `json:"engine"`
	Config Config `json:"config"`
	Levels int    `json:"levels"`

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

	// Activity gating: ShardsSkipped counts gate segments elided because
	// their input cone was untouched, GatingNanos the bookkeeping
	// time the gating decisions cost, and GatedVectors the gated vectors
	// per executor (indexed and named like GatedExecutors).
	ShardsSkipped int64                    `json:"shards_skipped"`
	GatingNanos   int64                    `json:"gating_overhead_ns"`
	GatedVectors  [NumGatedExecutors]int64 `json:"gated_vectors"`

	Level []LevelStat `json:"level"`

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
		s.Level = make([]LevelStat, len(o.cells))
		for l := range o.cells {
			s.Level[l] = LevelStat{Nanos: o.cells[l].nanos.Load(), Instrs: o.cells[l].instrs.Load()}
			s.Instrs += s.Level[l].Instrs
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

// BusyNanos sums the level cells' busy time.
func (s *Snapshot) BusyNanos() int64 {
	var t int64
	for i := range s.Level {
		t += s.Level[i].Nanos
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
// attached with the same shape (engine, levels, activity dimensions);
// wall time takes the maximum rather than the sum, since merged windows
// overlap in the vector-batch use case.
func (s *Snapshot) Merge(t *Snapshot) error {
	if s.Engine != t.Engine || s.Levels != t.Levels || len(s.Level) != len(t.Level) ||
		len(s.Steps) != len(t.Steps) || len(s.NetToggles) != len(t.NetToggles) {
		return fmt.Errorf("obs: merging snapshots of different shapes (%s, %d levels vs %s, %d levels)",
			s.Engine, s.Levels, t.Engine, t.Levels)
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
		s.Level[l].Nanos += t.Level[l].Nanos
		s.Level[l].Instrs += t.Level[l].Instrs
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

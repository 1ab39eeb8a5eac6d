package harness

import (
	"fmt"
	"math/rand"
	"runtime"

	"udsim/internal/circuit"
	"udsim/internal/obs"
	"udsim/internal/parsim"
	"udsim/internal/shard"
	"udsim/internal/texttable"
	"udsim/internal/vectors"
)

// This file is the activity-gating study: the same circuits driven by
// vector streams of controlled toggle rate, comparing the sequential
// baseline, the level-sharded strategy and the activity-gated strategy.
// Real workloads rarely change every input every vector — the paper's
// uniformly random streams are the worst case for gating — so the sweep
// makes the activity knob explicit: at low toggle rates most input cones
// are untouched and the gated engine skips their shard slices.

// gatingRates is the toggle-rate sweep: the probability that each
// primary input flips between consecutive vectors.
var gatingRates = []struct {
	Name string
	Rate float64
}{
	{"low", 0.01},
	{"med", 0.10},
	{"high", 0.40},
}

// gatingWorkers picks the worker count for the sharded and gated
// configurations: enough to exercise the barrier machinery even on a
// single-core runner (where wall-clock gains vanish but the barrier and
// skip deltas remain measurable).
func gatingWorkers(list []int) int {
	if len(list) > 0 && list[0] > 1 {
		return list[0]
	}
	return 2
}

// toggleVectors builds a stream whose consecutive vectors differ in each
// primary input with probability rate. The first vector is uniformly
// random; a rate of 0.5 recovers the paper's fully random workload.
func toggleVectors(n, width int, rate float64, seed int64) *vectors.Set {
	r := rand.New(rand.NewSource(seed))
	s := &vectors.Set{Width: width, Bits: make([][]bool, 0, n)}
	cur := make([]bool, width)
	for i := range cur {
		cur[i] = r.Intn(2) == 1
	}
	for len(s.Bits) < n {
		if len(s.Bits) > 0 {
			for i := range cur {
				if r.Float64() < rate {
					cur[i] = !cur[i]
				}
			}
		}
		s.Bits = append(s.Bits, append([]bool(nil), cur...))
	}
	return s
}

// gatingConfig is one measured configuration of the sweep.
type gatingConfig struct {
	strategy shard.Strategy
	workers  int
}

// measureGating compiles the parallel technique under one configuration,
// times the stream (best of repeats), then replays it once observed to
// fill the barrier/skip columns. The timed pass never carries an
// observer, mirroring the bench matrix. It also returns the observed
// replay's gated vectors per executor (zeros unless gated).
func measureGating(o Options, c *circuit.Circuit, vecs *vectors.Set, gc gatingConfig) (BenchRecord, [obs.NumGatedExecutors]int64, error) {
	var rec BenchRecord
	var mix [obs.NumGatedExecutors]int64
	s, err := parsim.Compile(c, parsim.Config{WordBits: o.WordBits})
	if err != nil {
		return rec, mix, err
	}
	defer s.Close()
	if gc.strategy != shard.Sequential {
		if _, err := s.ConfigureExec(gc.strategy, gc.workers); err != nil {
			return rec, mix, err
		}
	}
	d, err := bestOf(o.Repeats, func() error { return s.ResetConsistent(nil) }, vecs,
		func(vec []bool) error { return s.ApplyVector(vec) })
	if err != nil {
		return rec, mix, err
	}
	rec.NsPerVector = float64(d.Nanoseconds()) / float64(vecs.Len())

	// Observed replay: barrier crossings and waits, skip counts and the
	// executor mix all come from the observer.
	ob := obs.New(obs.Config{})
	s.SetObserver(ob)
	if err := s.ResetConsistent(nil); err != nil {
		return rec, mix, err
	}
	for _, vec := range vecs.Bits {
		if err := s.ApplyVector(vec); err != nil {
			return rec, mix, err
		}
	}
	snap := s.Snapshot()
	s.SetObserver(nil)
	n := float64(vecs.Len())
	rec.ObsBarrierWaitNsPerVector = float64(snap.BarrierWaitNanos()) / n
	rec.ObsShardsSkippedPerVector = float64(snap.ShardsSkipped) / n
	rec.ObsLevels = snap.Levels
	rec.Strategy = gc.strategy.String()
	rec.Workers = gc.workers
	// Every worker crosses every barrier, so worker 0's count is the
	// run's: one per level sharded, none for a gated vector.
	rec.ObsBarriersPerVector = float64(snap.Worker[0].Crossings) / n
	return rec, snap.GatedVectors, nil
}

// GatingMatrix measures circuit × toggle-rate × strategy and returns the
// machine-readable bench file (`udbench -json FILE -exp gating`). The
// per-record toggle_rate, obs_barriers_per_vector and
// obs_shards_skipped_per_vector columns carry the study's results; the
// schema is shared with the plain bench matrix.
func GatingMatrix(o Options, rev string, workersList []int) (*BenchFile, error) {
	o = o.withDefaults()
	w := gatingWorkers(workersList)
	file := &BenchFile{
		Schema:     BenchSchema,
		Revision:   rev,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WordBits:   o.WordBits,
		Vectors:    o.Vectors,
	}
	cfgs := []gatingConfig{
		{shard.Sequential, 1},
		{shard.Sharded, w},
		{shard.ActivityGated, w},
	}
	for _, name := range o.Circuits {
		c, err := benchCircuit(o, name)
		if err != nil {
			return nil, err
		}
		for _, rt := range gatingRates {
			vecs := toggleVectors(o.Vectors, len(c.Inputs), rt.Rate, o.Seed)
			for _, gc := range cfgs {
				rec, _, err := measureGating(o, c, vecs, gc)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, gc.strategy, err)
				}
				rec.Circuit = name
				rec.Technique = "parallel"
				rec.ToggleRate = rt.Rate
				file.Records = append(file.Records, rec)
			}
		}
	}
	return file, nil
}

// Gating reproduces the activity-gating table (`udbench -exp gating`):
// for each circuit and toggle rate, ns/vector under the three
// configurations plus the barrier and skip deltas that survive even a
// single-core runner.
func Gating(o Options) (*Result, error) {
	o = o.withDefaults()
	w := gatingWorkers(nil)
	t := texttable.New(
		fmt.Sprintf("Activity gating — toggle-rate sweep (%d vectors, W=%d, %d workers)",
			o.Vectors, o.WordBits, w),
		"Circuit", "Rate", "Seq", "Sharded", "Gated", "Spd", "Barr", "Skip/vec", "GMix")
	for _, name := range o.Circuits {
		c, err := benchCircuit(o, name)
		if err != nil {
			return nil, err
		}
		for _, rt := range gatingRates {
			vecs := toggleVectors(o.Vectors, len(c.Inputs), rt.Rate, o.Seed)
			seq, _, err := measureGating(o, c, vecs, gatingConfig{shard.Sequential, 1})
			if err != nil {
				return nil, err
			}
			sh, _, err := measureGating(o, c, vecs, gatingConfig{shard.Sharded, w})
			if err != nil {
				return nil, err
			}
			gt, mix, err := measureGating(o, c, vecs, gatingConfig{shard.ActivityGated, w})
			if err != nil {
				return nil, err
			}
			spd := "-"
			if gt.NsPerVector > 0 {
				spd = fmt.Sprintf("%.1fx", sh.NsPerVector/gt.NsPerVector)
			}
			var total int64
			for _, v := range mix {
				total += v
			}
			pct := func(v int64) int64 { return (100*v + total/2) / max(total, 1) }
			t.Add(name, rt.Name,
				nsv(seq.NsPerVector), nsv(sh.NsPerVector), nsv(gt.NsPerVector),
				spd,
				fmt.Sprintf("%.0f", sh.ObsBarriersPerVector),
				fmt.Sprintf("%.1f", gt.ObsShardsSkippedPerVector),
				fmt.Sprintf("%d/%d", pct(mix[obs.GatedSequential]), pct(mix[obs.GatedCaller])))
		}
	}
	return &Result{Table: t, Notes: []string{
		"gated runs are bit-identical to sequential; Spd = Sharded/Gated ns per vector",
		"Barr = barrier crossings per vector (sharded), counted by the observer; gated vectors run on the caller alone and cross none",
		"GMix = % of gated vectors on the sequential form / the caller alone",
		"single-core runners: read the barrier and skip columns, not wall clock",
	}}, nil
}

func nsv(ns float64) string { return fmt.Sprintf("%.0f", ns) }

// benchCircuit loads one benchmark circuit without a vector stream (the
// gating study generates its own toggle-controlled streams).
func benchCircuit(o Options, name string) (*circuit.Circuit, error) {
	c, _, err := bench(Options{Vectors: 1, Seed: o.Seed, WordBits: o.WordBits, Repeats: 1}, name)
	return c, err
}

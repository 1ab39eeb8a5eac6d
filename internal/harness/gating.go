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
// baseline and the activity-gated strategy. Real workloads rarely change
// every input every vector — the paper's uniformly random streams are
// the worst case for gating — so the sweep makes the activity knob
// explicit: at low toggle rates most input cones are untouched and the
// gated engine skips their instruction ranges.

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

// measureGating compiles the parallel technique under one strategy,
// times the stream (best of repeats), then replays it once observed to
// fill the skip columns. The timed pass never carries an observer,
// mirroring the bench matrix. It also returns the observed replay's
// gated vectors per executor (zeros unless gated).
func measureGating(o Options, c *circuit.Circuit, vecs *vectors.Set, strategy shard.Strategy) (BenchRecord, [obs.NumGatedExecutors]int64, error) {
	var rec BenchRecord
	var mix [obs.NumGatedExecutors]int64
	s, err := parsim.Compile(c, parsim.Config{WordBits: o.WordBits})
	if err != nil {
		return rec, mix, err
	}
	defer s.Close()
	if strategy != shard.Sequential {
		if _, err := s.ConfigureExec(strategy, 1); err != nil {
			return rec, mix, err
		}
	}
	d, err := bestOf(o.Repeats, func() error { return s.ResetConsistent(nil) }, vecs,
		func(vec []bool) error { return s.ApplyVector(vec) })
	if err != nil {
		return rec, mix, err
	}
	rec.NsPerVector = float64(d.Nanoseconds()) / float64(vecs.Len())

	// Observed replay: skip counts and the executor mix come from the
	// observer.
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
	rec.ObsShardsSkippedPerVector = float64(snap.ShardsSkipped) / float64(vecs.Len())
	rec.ObsLevels = snap.Levels
	rec.Strategy = strategy.String()
	rec.Workers = 1
	return rec, snap.GatedVectors, nil
}

// GatingMatrix measures circuit × toggle-rate × strategy and returns the
// machine-readable bench file (`udbench -json FILE -exp gating`). The
// per-record toggle_rate and obs_shards_skipped_per_vector columns carry
// the study's results; the schema is shared with the plain bench matrix.
func GatingMatrix(o Options, rev string) (*BenchFile, error) {
	o = o.withDefaults()
	file := &BenchFile{
		Schema:     BenchSchema,
		Revision:   rev,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WordBits:   o.WordBits,
		Vectors:    o.Vectors,
	}
	strategies := []shard.Strategy{shard.Sequential, shard.ActivityGated}
	for _, name := range o.Circuits {
		c, err := benchCircuit(o, name)
		if err != nil {
			return nil, err
		}
		for _, rt := range gatingRates {
			vecs := toggleVectors(o.Vectors, len(c.Inputs), rt.Rate, o.Seed)
			for _, strategy := range strategies {
				rec, _, err := measureGating(o, c, vecs, strategy)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, strategy, err)
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
// for each circuit and toggle rate, ns/vector sequential and gated, the
// ranges skipped per vector and the gated executor mix.
func Gating(o Options) (*Result, error) {
	o = o.withDefaults()
	t := texttable.New(
		fmt.Sprintf("Activity gating — toggle-rate sweep (%d vectors, W=%d)", o.Vectors, o.WordBits),
		"Circuit", "Rate", "Seq", "Gated", "Spd", "Skip/vec", "GMix")
	for _, name := range o.Circuits {
		c, err := benchCircuit(o, name)
		if err != nil {
			return nil, err
		}
		for _, rt := range gatingRates {
			vecs := toggleVectors(o.Vectors, len(c.Inputs), rt.Rate, o.Seed)
			seq, _, err := measureGating(o, c, vecs, shard.Sequential)
			if err != nil {
				return nil, err
			}
			gt, mix, err := measureGating(o, c, vecs, shard.ActivityGated)
			if err != nil {
				return nil, err
			}
			spd := "-"
			if gt.NsPerVector > 0 {
				spd = fmt.Sprintf("%.1fx", seq.NsPerVector/gt.NsPerVector)
			}
			var total int64
			for _, v := range mix {
				total += v
			}
			pct := func(v int64) int64 { return (100*v + total/2) / max(total, 1) }
			t.Add(name, rt.Name,
				nsv(seq.NsPerVector), nsv(gt.NsPerVector),
				spd,
				fmt.Sprintf("%.1f", gt.ObsShardsSkippedPerVector),
				fmt.Sprintf("%d/%d", pct(mix[obs.GatedSequential]), pct(mix[obs.GatedCaller])))
		}
	}
	return &Result{Table: t, Notes: []string{
		"gated runs are bit-identical to sequential; Spd = Seq/Gated ns per vector",
		"Skip/vec = instruction ranges skipped per vector, counted by the observer",
		"GMix = % of gated vectors on the sequential form / the level loop",
	}}, nil
}

func nsv(ns float64) string { return fmt.Sprintf("%.0f", ns) }

// benchCircuit loads one benchmark circuit without a vector stream (the
// gating study generates its own toggle-controlled streams).
func benchCircuit(o Options, name string) (*circuit.Circuit, error) {
	c, _, err := bench(Options{Vectors: 1, Seed: o.Seed, WordBits: o.WordBits, Repeats: 1}, name)
	return c, err
}

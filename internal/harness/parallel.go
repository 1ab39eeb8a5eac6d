package harness

import (
	"fmt"
	"runtime"
	"time"

	"udsim/internal/parsim"
	"udsim/internal/shard"
	"udsim/internal/texttable"
)

// ParallelExec reproduces the multicore execution study: for each
// circuit, the parallel technique's sequential baseline against the
// vector-batch strategy at GOMAXPROCS workers, and what the auto-picker
// chooses. Both runs are the same coherent stream, bit-identical.
func ParallelExec(o Options) (*Result, error) {
	o = o.withDefaults()
	workers := runtime.GOMAXPROCS(0)
	t := texttable.New(
		fmt.Sprintf("Multicore execution — parallel technique (%d vectors, W=%d, %d workers)",
			o.Vectors, o.WordBits, workers),
		"Circuit", "Auto", "Seq", "Batch", "BaSpd")
	for _, name := range o.Circuits {
		c, vecs, err := bench(o, name)
		if err != nil {
			return nil, err
		}
		s, err := parsim.Compile(c, parsim.Config{WordBits: o.WordBits})
		if err != nil {
			return nil, err
		}
		dSeq, err := bestOf(o.Repeats, func() error { return s.ResetConsistent(nil) }, vecs,
			func(vec []bool) error { return s.ApplyVector(vec) })
		if err != nil {
			return nil, err
		}
		// Vector batching parallelizes the stream, not the vector: time it
		// through ApplyStream over the whole set.
		if _, err := s.ConfigureExec(shard.VectorBatch, workers); err != nil {
			return nil, err
		}
		var dBa time.Duration
		for r := 0; r < o.Repeats; r++ {
			if err := s.ResetConsistent(nil); err != nil {
				return nil, err
			}
			start := time.Now()
			if err := s.ApplyStream(vecs.Bits); err != nil {
				return nil, err
			}
			if d := time.Since(start); r == 0 || d < dBa {
				dBa = d
			}
		}
		resolved, err := s.ConfigureExec(shard.Auto, workers)
		if err != nil {
			return nil, err
		}
		s.Close()
		t.Add(name, resolved.String(), secs(dSeq), secs(dBa), ratio(dSeq, dBa))
	}
	return &Result{Table: t, Notes: []string{
		"batch runs are the same coherent stream as sequential, bit-identical",
		fmt.Sprintf("Auto = strategy the picker resolves at %d workers", workers),
	}}, nil
}

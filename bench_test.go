// Benchmarks reproducing the paper's tables as testing.B micro-benchmarks.
// Each BenchmarkFigNN family times the engines that appear in the paper's
// figure of the same number, per synthesized ISCAS-85 profile circuit; the
// cmd/udbench harness prints the same data as whole-table wall-clock runs.
//
// Time per op is the cost of one input vector. The interesting quantity is
// the *ratio* between engines on the same circuit (who wins, by what
// factor), which is what the paper's tables report.
package udsim

import (
	"fmt"
	"math/rand"
	"testing"

	"udsim/internal/vectors"
)

// benchCircuits is a representative subset spanning the paper's range:
// small/shallow, medium, deep multi-word, and the 4-word multiplier.
var benchCircuits = []string{"c432", "c880", "c1908", "c6288"}

const benchVecPool = 256

func mustEngine(b *testing.B, tech, circuitName string) (Engine, *vectors.Set) {
	b.Helper()
	c, err := ISCAS85(circuitName)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(tech, c)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.ResetConsistent(nil); err != nil {
		b.Fatal(err)
	}
	return e, vectors.Random(benchVecPool, len(e.Circuit().Inputs), 1990)
}

func runVectors(b *testing.B, e Engine, vecs *vectors.Set) {
	b.Helper()
	apply := e.Apply
	if ev, ok := e.(*EventSim); ok {
		apply = ev.ApplyFast // benchmark the untraced baseline, like the paper
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := apply(vecs.Bits[i%benchVecPool]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig19 times the four engines of Fig. 19 on each circuit:
// interpreted 3-valued, interpreted 2-valued, PC-set, parallel.
func BenchmarkFig19(b *testing.B) {
	for _, ckt := range benchCircuits {
		for _, tech := range []string{"event3", "event2", "pcset", "parallel"} {
			b.Run(fmt.Sprintf("%s/%s", ckt, tech), func(b *testing.B) {
				e, vecs := mustEngine(b, tech, ckt)
				runVectors(b, e, vecs)
			})
		}
	}
}

// BenchmarkFig20 times bit-field trimming against the plain parallel
// technique on the multi-word circuits where it matters.
func BenchmarkFig20(b *testing.B) {
	for _, ckt := range []string{"c1908", "c6288"} {
		for _, tech := range []string{"parallel", "parallel-trim"} {
			b.Run(fmt.Sprintf("%s/%s", ckt, tech), func(b *testing.B) {
				e, vecs := mustEngine(b, tech, ckt)
				runVectors(b, e, vecs)
			})
		}
	}
}

// BenchmarkFig23 times the two shift-elimination algorithms against the
// unoptimized parallel technique.
func BenchmarkFig23(b *testing.B) {
	for _, ckt := range []string{"c432", "c1908", "c6288"} {
		for _, tech := range []string{"parallel", "parallel-pt", "parallel-cb"} {
			b.Run(fmt.Sprintf("%s/%s", ckt, tech), func(b *testing.B) {
				e, vecs := mustEngine(b, tech, ckt)
				runVectors(b, e, vecs)
			})
		}
	}
}

// BenchmarkFig24 times path tracing combined with trimming.
func BenchmarkFig24(b *testing.B) {
	for _, ckt := range []string{"c1908", "c6288"} {
		for _, tech := range []string{"parallel", "parallel-pt", "parallel-pt-trim"} {
			b.Run(fmt.Sprintf("%s/%s", ckt, tech), func(b *testing.B) {
				e, vecs := mustEngine(b, tech, ckt)
				runVectors(b, e, vecs)
			})
		}
	}
}

// BenchmarkZeroDelay times the §5 zero-delay side study: interpreted
// levelized simulation versus compiled LCC.
func BenchmarkZeroDelay(b *testing.B) {
	for _, ckt := range []string{"c880", "c6288"} {
		for _, tech := range []string{"lcc"} {
			b.Run(fmt.Sprintf("%s/%s", ckt, tech), func(b *testing.B) {
				e, vecs := mustEngine(b, tech, ckt)
				runVectors(b, e, vecs)
			})
		}
		b.Run(fmt.Sprintf("%s/interp", ckt), func(b *testing.B) {
			c, err := ISCAS85(ckt)
			if err != nil {
				b.Fatal(err)
			}
			// The interpreted zero-delay simulator is internal; reach it
			// through the event-driven package's levelized interpreter.
			z, err := NewZeroDelayInterpreted(c)
			if err != nil {
				b.Fatal(err)
			}
			vecs := vectors.Random(benchVecPool, len(z.Circuit().Inputs), 1990)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := z.ApplyVector(vecs.Bits[i%benchVecPool]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDataParallel times the PC-set method's 64-lane mode (§3): one
// op simulates 64 independent vectors, so compare ns/op here against
// 64× the scalar pcset ns/op from BenchmarkFig19.
func BenchmarkDataParallel(b *testing.B) {
	for _, ckt := range []string{"c432", "c6288"} {
		b.Run(fmt.Sprintf("%s/pcset-64lane", ckt), func(b *testing.B) {
			c, err := ISCAS85(ckt)
			if err != nil {
				b.Fatal(err)
			}
			e, err := openPCSetSim(c, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.ResetConsistent(nil); err != nil {
				b.Fatal(err)
			}
			vecs := vectors.Random(benchVecPool, len(e.Circuit().Inputs), 1990)
			packed := vecs.Packed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.ApplyLanes(packed[i%len(packed)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures compiler throughput: building the straight-
// line program for the largest circuit with each technique.
func BenchmarkCompile(b *testing.B) {
	c, err := ISCAS85("c6288")
	if err != nil {
		b.Fatal(err)
	}
	for _, tech := range []string{"pcset", "parallel", "parallel-pt-trim"} {
		b.Run(tech, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewEngine(tech, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObservedStream times the streaming loop with and without a
// runtime observer attached — the observability layer's overhead budget.
// The engine is activity-gated on a 1%-toggle stream, so the observer's
// hooks in the level loop and in the gating decision run. Run with
// -benchmem: both variants must report 0 allocs/op, and the observed
// ns/op should sit within a few percent of the bare ns/op.
func BenchmarkObservedStream(b *testing.B) {
	for _, observed := range []bool{false, true} {
		name := "bare"
		if observed {
			name = "observed"
		}
		b.Run(fmt.Sprintf("c1908/gated/%s", name), func(b *testing.B) {
			c, err := ISCAS85("c1908")
			if err != nil {
				b.Fatal(err)
			}
			opts := []Option{WithExec(ExecActivityGated, 1)}
			if observed {
				opts = append(opts, WithObserver(NewObserver(ObserverConfig{})))
			}
			e, err := Open(c, TechParallel, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer e.(Closer).Close()
			if err := e.ResetConsistent(nil); err != nil {
				b.Fatal(err)
			}
			se := e.(Streamer)
			vecs := toggleStream(benchVecPool, len(e.Circuit().Inputs), 0.01, 1990)
			if err := se.ApplyStream(vecs); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := se.ApplyStream(vecs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelExec times the stream execution strategies on the
// vector-stream path. One op is a whole 256-vector stream: uniformly
// random vectors, except for the activity-gated case, which runs a
// stream whose inputs each toggle with probability 1% between vectors
// (the workload gating exists for). The steady state must not allocate:
// run with -benchmem and expect 0 allocs/op for every strategy (clones
// and worker buffers are built during warm-up).
func BenchmarkParallelExec(b *testing.B) {
	cfgs := []struct {
		name     string
		strategy ExecStrategy
	}{
		{"seq", ExecSequential},
		{"batch", ExecVectorBatch},
		{"gated", ExecActivityGated},
	}
	for _, ckt := range []string{"c1908", "c6288"} {
		for _, cfg := range cfgs {
			b.Run(fmt.Sprintf("%s/%s", ckt, cfg.name), func(b *testing.B) {
				c, err := ISCAS85(ckt)
				if err != nil {
					b.Fatal(err)
				}
				e, err := openParallelSim(c, WithExec(cfg.strategy, 0))
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				if err := e.ResetConsistent(nil); err != nil {
					b.Fatal(err)
				}
				vecs := vectors.Random(benchVecPool, len(e.Circuit().Inputs), 1990).Bits
				if cfg.strategy == ExecActivityGated {
					vecs = toggleStream(benchVecPool, len(e.Circuit().Inputs), 0.01, 1990)
				}
				if err := e.ApplyStream(vecs); err != nil { // warm-up
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.ApplyStream(vecs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// toggleStream draws n vectors of the given width: a uniformly random
// first vector, after which each input flips with probability rate.
func toggleStream(n, width int, rate float64, seed int64) [][]bool {
	r := rand.New(rand.NewSource(seed))
	cur := make([]bool, width)
	for i := range cur {
		cur[i] = r.Intn(2) == 1
	}
	vecs := make([][]bool, n)
	for v := range vecs {
		for i := range cur {
			if v > 0 && r.Float64() < rate {
				cur[i] = !cur[i]
			}
		}
		vecs[v] = append([]bool(nil), cur...)
	}
	return vecs
}

// BenchmarkSequentialSteadyState pins the allocation-free steady state
// of sequential execution on sim-stream's two configurations: each op is
// a reset to the settled state (the reference evaluator settles every
// gate) plus one vector through the sequential execution form. Run with
// -benchmem and expect 0 allocs/op.
func BenchmarkSequentialSteadyState(b *testing.B) {
	c, err := ISCAS85("c880")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		tech  Technique
		opts  []Option
	}{
		{"parallel-pt-trim", TechParallel, []Option{WithShiftElimination(PathTracing), WithTrimming()}},
		{"pcset", TechPCSet, nil},
	} {
		b.Run("c880/"+tc.label, func(b *testing.B) {
			e, err := Open(c, tc.tech, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			vec := make([]bool, len(c.Inputs))
			// Warm-up: the first reset builds the reference evaluator.
			if err := e.ResetConsistent(nil); err != nil {
				b.Fatal(err)
			}
			if err := e.Apply(vec); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vec[i%len(vec)] = !vec[i%len(vec)]
				if err := e.ResetConsistent(nil); err != nil {
					b.Fatal(err)
				}
				if err := e.Apply(vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Tests for the multicore execution engine at the facade level: the
// sharded strategy must be bit-for-bit identical to sequential execution
// on every benchmark circuit, for both compiled techniques, at every
// worker count — the determinism contract of ISSUE satellite (c). Run
// under -race in CI.
package udsim

import (
	"fmt"
	"testing"

	"udsim/internal/shard"
	"udsim/internal/vectors"
)

// sweepWorkers are the worker counts the determinism sweep exercises.
// Counts above GOMAXPROCS are deliberate: the plan then has more shards
// than cores and the barrier must still line the levels up correctly.
var sweepWorkers = []int{1, 2, 4, 8}

// TestShardedDeterminismSweep compares the sharded execution engine
// against the sequential baseline across all synthesized ISCAS-85
// profiles × both compiled techniques × worker counts {1,2,4,8}:
// identical finals on every net after every vector, and identical
// waveforms where traced.
func TestShardedDeterminismSweep(t *testing.T) {
	names := ISCAS85Names()
	nvec := 8
	if testing.Short() {
		names = []string{"c432", "c1908", "c6288"}
		nvec = 4
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			vecs := vectors.Random(nvec, len(c.Inputs), 1990)
			t.Run("parallel", func(t *testing.T) {
				ref, err := openParallelSim(c)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range sweepWorkers {
					sh, err := openParallelSim(c, WithExec(ExecSharded, w))
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if got := sh.ExecStrategy(); got != ExecSharded {
						t.Fatalf("workers=%d: strategy %v, want %v", w, got, ExecSharded)
					}
					compareParallel(t, ref, sh, vecs, w)
					sh.Close()
				}
			})
			t.Run("pcset", func(t *testing.T) {
				ref, err := openPCSetSim(c, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range sweepWorkers {
					sh, err := openPCSetSim(c, nil, WithExec(ExecSharded, w))
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					comparePCSet(t, ref, sh, vecs, w)
					sh.Close()
				}
			})
		})
	}
}

func compareParallel(t *testing.T, ref *ParallelSim, sh compiledEngine, vecs *vectors.Set, w int) {
	t.Helper()
	if err := ref.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := sh.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	c := ref.Circuit()
	for v, vec := range vecs.Bits {
		if err := ref.Apply(vec); err != nil {
			t.Fatal(err)
		}
		if err := sh.Apply(vec); err != nil {
			t.Fatal(err)
		}
		for n := range c.Nets {
			id := NetID(n)
			if ref.Final(id) != sh.Final(id) {
				t.Fatalf("workers=%d vec %d net %s: seq=%v sharded=%v",
					w, v, c.Nets[n].Name, ref.Final(id), sh.Final(id))
			}
		}
		// Whole-waveform agreement on the primary outputs: sharded
		// execution reorders instructions within a level, which must not
		// perturb any intermediate time step.
		for _, id := range c.Outputs {
			for tm := 0; tm <= ref.Depth(); tm++ {
				rv, _ := ref.ValueAt(id, tm)
				sv, _ := sh.ValueAt(id, tm)
				if rv != sv {
					t.Fatalf("workers=%d vec %d net %s t=%d: seq=%v sharded=%v",
						w, v, c.Nets[id].Name, tm, rv, sv)
				}
			}
		}
	}
}

func comparePCSet(t *testing.T, ref, sh *PCSetSim, vecs *vectors.Set, w int) {
	t.Helper()
	if err := ref.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := sh.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	c := ref.Circuit()
	for v, vec := range vecs.Bits {
		if err := ref.Apply(vec); err != nil {
			t.Fatal(err)
		}
		if err := sh.Apply(vec); err != nil {
			t.Fatal(err)
		}
		for n := range c.Nets {
			id := NetID(n)
			if ref.Final(id) != sh.Final(id) {
				t.Fatalf("workers=%d vec %d net %s: seq=%v sharded=%v",
					w, v, c.Nets[n].Name, ref.Final(id), sh.Final(id))
			}
		}
		for _, id := range c.Outputs {
			for tm := 0; tm <= ref.Depth(); tm++ {
				rv, rok := ref.ValueAt(id, tm)
				sv, sok := sh.ValueAt(id, tm)
				if rok != sok {
					t.Fatalf("workers=%d vec %d net %s t=%d: observability seq=%v sharded=%v",
						w, v, c.Nets[id].Name, tm, rok, sok)
				}
				if rok && rv != sv {
					t.Fatalf("workers=%d vec %d net %s t=%d: seq=%v sharded=%v",
						w, v, c.Nets[id].Name, tm, rv, sv)
				}
			}
		}
	}
}

// TestShardedStreamIsCoherent checks that ApplyStream under the sharded
// strategy is the same coherent stream as a sequential Apply loop — the
// previous-vector state must thread through the whole stream.
func TestShardedStreamIsCoherent(t *testing.T) {
	c, err := ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	vecs := vectors.Random(32, len(c.Inputs), 7)
	ref, err := openParallelSim(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	for _, vec := range vecs.Bits {
		if err := ref.Apply(vec); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := openParallelSim(c, WithExec(ExecSharded, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if err := sh.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := sh.ApplyStream(vecs.Bits); err != nil {
		t.Fatal(err)
	}
	for n := range c.Nets {
		id := NetID(n)
		if ref.Final(id) != sh.Final(id) {
			t.Fatalf("net %s: seq=%v sharded stream=%v", c.Nets[n].Name, ref.Final(id), sh.Final(id))
		}
	}
}

// TestVectorBatchBlocksMatchSequential checks the vector-batch strategy's
// substream semantics: each block's final state equals a fresh sequential
// simulator fed exactly that block. The streams leave the last block
// short, and at 5 workers over 11 vectors (blocks of 3) empty.
func TestVectorBatchBlocksMatchSequential(t *testing.T) {
	c, err := ISCAS85("c1355")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, vecs int }{{4, 4*4 + 3}, {5, 11}} {
		workers := tc.workers
		vecs := vectors.Random(tc.vecs, len(c.Inputs), 11)
		ba, err := openParallelSim(c, WithExec(ExecVectorBatch, workers))
		if err != nil {
			t.Fatal(err)
		}
		defer ba.Close()
		if err := ba.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		if err := ba.ApplyStream(vecs.Bits); err != nil {
			t.Fatal(err)
		}
		block := (len(vecs.Bits) + workers - 1) / workers
		for k := 0; k < workers; k++ {
			lo := min(k*block, len(vecs.Bits))
			hi := min(lo+block, len(vecs.Bits))
			ref, err := openParallelSim(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
			for _, vec := range vecs.Bits[lo:hi] {
				if err := ref.Apply(vec); err != nil {
					t.Fatal(err)
				}
			}
			for n := range c.Nets {
				id := NetID(n)
				if ref.Final(id) != ba.BlockFinal(k, id) {
					t.Fatalf("workers %d block %d net %s: sequential=%v batch=%v",
						workers, k, c.Nets[n].Name, ref.Final(id), ba.BlockFinal(k, id))
				}
			}
		}
	}
}

// TestAutoStrategyResolves checks that Auto picks a concrete strategy and
// that the result still simulates correctly, for both compiled
// techniques, and that every shard plan carries this machine's measured
// barrier cost rather than the static default.
func TestAutoStrategyResolves(t *testing.T) {
	for _, tech := range []Technique{TechParallel, TechPCSet} {
		for _, name := range []string{"c432", "c6288"} {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Open(c, tech, WithExec(ExecAuto, 4))
			if err != nil {
				t.Fatal(err)
			}
			got := e.(Streamer).ExecStrategy()
			if got != ExecSharded && got != ExecVectorBatch {
				t.Fatalf("%v/%s: auto resolved to %v, want a concrete parallel strategy", tech, name, got)
			}
			sh, err := Open(c, tech, WithExec(ExecSharded, 4))
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []Engine{e, sh} {
				if plan := x.(compiledEngine).unwrap().core.ExecPlan(); plan != nil && plan.BarrierCost() != shard.CalibrateBarrier(4) {
					t.Fatalf("%v/%s: %v plan barrier cost %d, want the calibrated %d",
						tech, name, x.(Streamer).ExecStrategy(), plan.BarrierCost(), shard.CalibrateBarrier(4))
				}
			}
			sh.(Closer).Close()
			ref, err := Open(c, tech)
			if err != nil {
				t.Fatal(err)
			}
			vecs := vectors.Random(4, len(c.Inputs), 3)
			if err := e.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
			if err := ref.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
			for _, vec := range vecs.Bits {
				if err := e.Apply(vec); err != nil {
					t.Fatal(err)
				}
				if err := ref.Apply(vec); err != nil {
					t.Fatal(err)
				}
			}
			for n := range c.Nets {
				id := NetID(n)
				if ref.Final(id) != e.Final(id) {
					t.Fatalf("%v/%s net %s: seq=%v auto(%v)=%v", tech, name, c.Nets[n].Name, ref.Final(id), got, e.Final(id))
				}
			}
			e.(Closer).Close()
		}
	}
}

// TestParseExecStrategy pins the facade's strategy-name surface.
func TestParseExecStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want ExecStrategy
		ok   bool
	}{
		{"sequential", ExecSequential, true},
		{"seq", ExecSequential, true},
		{"sharded", ExecSharded, true},
		{"shard", ExecSharded, true},
		{"vector-batch", ExecVectorBatch, true},
		{"batch", ExecVectorBatch, true},
		{"auto", ExecAuto, true},
		{"hyperthreaded", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseExecStrategy(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseExecStrategy(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && got != tc.want {
			t.Fatalf("ParseExecStrategy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, s := range []ExecStrategy{ExecSequential, ExecSharded, ExecVectorBatch, ExecAuto} {
		back, err := ParseExecStrategy(s.String())
		if err != nil || back != s {
			t.Fatalf("round trip %v: got %v, err %v", s, back, err)
		}
	}
	_ = fmt.Sprintf("%v", ExecSharded) // Stringer is part of the surface
}

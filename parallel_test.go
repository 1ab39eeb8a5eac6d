// Tests for stream execution at the facade level: every strategy must
// keep ApplyStream's contract — one coherent stream, bit-identical to
// sequential execution, ending on the stream's last vector — on every
// benchmark circuit, for both compiled techniques, at every worker
// count. Run under -race in CI.
package udsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"udsim/internal/shard"
	"udsim/internal/vectors"
)

// sweepWorkers are the worker counts the determinism sweep exercises.
// Counts above GOMAXPROCS are deliberate: the stream then has more
// blocks than cores.
var sweepWorkers = []int{1, 2, 4, 8}

// TestShardedDeterminismSweep compares vector batching against the
// sequential baseline across all synthesized ISCAS-85 profiles × both
// compiled techniques × worker counts {1,2,4,8}: a stream of 8w+3
// vectors (uneven blocks) applied as two ApplyStream calls must leave
// every net's final and waveform identical to sequential execution
// after each call. (The name predates the
// retirement of level-sharded execution, the strategy this sweep first
// covered.)
func TestShardedDeterminismSweep(t *testing.T) {
	names := ISCAS85Names()
	if testing.Short() {
		names = []string{"c432", "c1908", "c6288"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			t.Run("parallel", func(t *testing.T) {
				sweepBatch(t, c, func(opts ...Option) (compiledEngine, error) { return openParallelSim(c, opts...) })
			})
			t.Run("pcset", func(t *testing.T) {
				sweepBatch(t, c, func(opts ...Option) (compiledEngine, error) { return openPCSetSim(c, nil, opts...) })
			})
		})
	}
}

// sweepBatch runs the determinism sweep for one technique.
func sweepBatch(t *testing.T, c *Circuit, open func(...Option) (compiledEngine, error)) {
	t.Helper()
	ref, err := open()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sweepWorkers {
		ba, err := open(WithExec(ExecVectorBatch, w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := ba.ExecStrategy(); got != ExecVectorBatch {
			t.Fatalf("workers=%d: strategy %v, want %v", w, got, ExecVectorBatch)
		}
		vecs := vectors.Random(8*w+3, len(c.Inputs), 1990).Bits
		for _, e := range []compiledEngine{ref, ba} {
			if err := e.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
		}
		for call, part := range [][][]bool{vecs[:4*w+1], vecs[4*w+1:]} {
			if err := ref.ApplyStream(part); err != nil {
				t.Fatal(err)
			}
			if err := ba.ApplyStream(part); err != nil {
				t.Fatal(err)
			}
			captureEnd(ba, nil).requireEqual(t, fmt.Sprintf("workers=%d call %d", w, call), c, captureEnd(ref, nil))
		}
		ba.Close()
	}
}

// compareParallel applies vecs one at a time to a sequential engine and
// to sh, comparing every net's final and every primary output's waveform
// after each vector.
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
				t.Fatalf("workers=%d vec %d net %s: seq=%v got=%v",
					w, v, c.Nets[n].Name, ref.Final(id), sh.Final(id))
			}
		}
		// Whole-waveform agreement on the primary outputs: a leveled or
		// gated run reorders and skips instructions, which must not
		// perturb any intermediate time step.
		for _, id := range c.Outputs {
			for tm := 0; tm <= ref.Depth(); tm++ {
				rv, _ := ref.ValueAt(id, tm)
				sv, _ := sh.ValueAt(id, tm)
				if rv != sv {
					t.Fatalf("workers=%d vec %d net %s t=%d: seq=%v got=%v",
						w, v, c.Nets[id].Name, tm, rv, sv)
				}
			}
		}
	}
}

// comparePCSet is compareParallel for the PC-set method, whose waveform
// reads also report observability.
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
				t.Fatalf("workers=%d vec %d net %s: seq=%v got=%v",
					w, v, c.Nets[n].Name, ref.Final(id), sh.Final(id))
			}
		}
		for _, id := range c.Outputs {
			for tm := 0; tm <= ref.Depth(); tm++ {
				rv, rok := ref.ValueAt(id, tm)
				sv, sok := sh.ValueAt(id, tm)
				if rok != sok {
					t.Fatalf("workers=%d vec %d net %s t=%d: observability seq=%v got=%v",
						w, v, c.Nets[id].Name, tm, rok, sok)
				}
				if rok && rv != sv {
					t.Fatalf("workers=%d vec %d net %s t=%d: seq=%v got=%v",
						w, v, c.Nets[id].Name, tm, rv, sv)
				}
			}
		}
	}
}

// streamLayouts are the configurations the coherent-stream test runs:
// the parallel technique trimmed, with path tracing and trimming (whose
// input fields keep previous-vector bits below their split), and the
// PC-set method monitoring every net.
var streamLayouts = []struct {
	name string
	open func(c *Circuit, opts ...Option) (compiledEngine, error)
}{
	{"parallel-trim", func(c *Circuit, opts ...Option) (compiledEngine, error) {
		return openParallelSim(c, append(opts, WithTrimming())...)
	}},
	{"parallel-pt-trim", func(c *Circuit, opts ...Option) (compiledEngine, error) {
		return openParallelSim(c, append(opts, WithShiftElimination(PathTracing), WithTrimming())...)
	}},
	{"pcset-all", func(c *Circuit, opts ...Option) (compiledEngine, error) {
		all := make([]NetID, c.NumNets())
		for n := range all {
			all[n] = NetID(n)
		}
		return openPCSetSim(c, all, opts...)
	}},
}

// TestStreamIsCoherent pins ApplyStream's contract under vector
// batching on every profile: for the parallel technique trimmed, with
// path tracing and trimming, and the PC-set method monitoring every net,
// at 2 and 4 workers, streams of 1, 2w−1, 2w, 2w+1 and 257 vectors run
// twice in a row, then after a ResetConsistent a third time. After each
// call every net's final and every net's waveform (ValueAt 0..Depth)
// equal sequential execution's, and the activity observer's per-step
// transitions and per-net toggles and glitches — which see every
// vector's waveform — equal sequential's. Each engine is opened once per
// (profile, layout) and reset between cases; the sequential results are
// computed once per stream length.
func TestStreamIsCoherent(t *testing.T) {
	for _, name := range ISCAS85Names() {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		pool := vectors.Random(3*257+1, len(c.Inputs), 2026).Bits
		for _, l := range streamLayouts {
			t.Run(name+"/"+l.name, func(t *testing.T) {
				ref := newObservedEngine(t, c, l.open)
				want := map[int][3]endState{}
				for _, w := range []int{2, 4} {
					ba := newObservedEngine(t, c, l.open, WithExec(ExecVectorBatch, w))
					for _, n := range []int{1, 2*w - 1, 2 * w, 2*w + 1, 257} {
						if _, ok := want[n]; !ok {
							want[n] = ref.runCase(t, pool, n)
						}
						got := ba.runCase(t, pool, n)
						for call := range got {
							got[call].requireEqual(t, fmt.Sprintf("workers=%d n=%d call %d", w, n, call), c, want[n][call])
						}
					}
					ba.e.Close()
				}
			})
		}
	}
}

// observedEngine is an engine with an activity observer attached.
type observedEngine struct {
	e  compiledEngine
	ob *Observer
}

func newObservedEngine(t *testing.T, c *Circuit, open func(*Circuit, ...Option) (compiledEngine, error), opts ...Option) observedEngine {
	t.Helper()
	ob := NewObserver(ObserverConfig{Activity: true})
	e, err := open(c, append(opts, WithObserver(ob))...)
	if err != nil {
		t.Fatal(err)
	}
	return observedEngine{e, ob}
}

// runCase resets the engine and its observer, then applies the case of
// stream length n drawn from pool: two streams in a row, then a reset
// onto the next pool vector and a third stream. It returns the end state
// after each call.
func (oe observedEngine) runCase(t *testing.T, pool [][]bool, n int) (ends [3]endState) {
	t.Helper()
	if err := oe.e.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	oe.ob.Attach(oe.ob.Shape())
	for call, vecs := range [3][][]bool{pool[:n], pool[n : 2*n], pool[2*n+1 : 3*n+1]} {
		if call == 2 {
			if err := oe.e.ResetConsistent(pool[2*n]); err != nil {
				t.Fatal(err)
			}
		}
		if err := oe.e.ApplyStream(vecs); err != nil {
			t.Fatal(err)
		}
		ends[call] = captureEnd(oe.e, oe.ob.Snapshot())
	}
	return ends
}

// endState is what a stream leaves behind: every net's final, every
// net's waveform (per time '0', '1' or '-' for unobservable) and the
// activity counters (nil when not observed).
type endState struct {
	finals []bool
	waves  []byte
	act    *Snapshot
}

func captureEnd(e compiledEngine, act *Snapshot) endState {
	c := e.Circuit()
	es := endState{finals: make([]bool, c.NumNets()), act: act}
	for n := range c.Nets {
		id := NetID(n)
		es.finals[n] = e.Final(id)
		for tm := 0; tm <= e.Depth(); tm++ {
			switch v, ok := e.ValueAt(id, tm); {
			case !ok:
				es.waves = append(es.waves, '-')
			case v:
				es.waves = append(es.waves, '1')
			default:
				es.waves = append(es.waves, '0')
			}
		}
	}
	return es
}

// requireEqual fails unless es equals the sequential end state want.
func (es endState) requireEqual(t *testing.T, label string, c *Circuit, want endState) {
	t.Helper()
	for n := range want.finals {
		if es.finals[n] != want.finals[n] {
			t.Fatalf("%s net %s: final %v, sequential %v", label, c.Nets[n].Name, es.finals[n], want.finals[n])
		}
	}
	if !bytes.Equal(es.waves, want.waves) {
		steps := len(want.waves) / len(want.finals)
		for i := range want.waves {
			if es.waves[i] != want.waves[i] {
				t.Fatalf("%s net %s t=%d: waveform %c, sequential %c", label, c.Nets[i/steps].Name, i%steps, es.waves[i], want.waves[i])
			}
		}
	}
	if want.act == nil {
		return
	}
	if es.act.ActivityVectors != want.act.ActivityVectors {
		t.Fatalf("%s: %d vectors scanned, sequential %d", label, es.act.ActivityVectors, want.act.ActivityVectors)
	}
	if !reflect.DeepEqual(es.act.Steps, want.act.Steps) {
		t.Fatalf("%s: transitions per step %v, sequential %v", label, es.act.Steps, want.act.Steps)
	}
	if !reflect.DeepEqual(es.act.NetToggles, want.act.NetToggles) || !reflect.DeepEqual(es.act.NetGlitches, want.act.NetGlitches) {
		t.Fatalf("%s: per-net toggles or glitches differ from sequential", label)
	}
}

// TestVectorBatchBlocksMatchSequential checks the vector-batch strategy
// where its blocks are uneven: the streams leave the last block short,
// and at 5 workers over 11 vectors (blocks of 3) empty. The engine must
// end on the stream's last vector — every net's final and waveform equal
// to a sequential engine fed the whole stream — and the next stream must
// continue from there.
func TestVectorBatchBlocksMatchSequential(t *testing.T) {
	c, err := ISCAS85("c1355")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, vecs int }{{4, 4*4 + 3}, {5, 11}} {
		vecs := vectors.Random(2*tc.vecs, len(c.Inputs), 11).Bits
		ba, err := openParallelSim(c, WithExec(ExecVectorBatch, tc.workers))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := openParallelSim(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*ParallelSim{ba, ref} {
			if err := e.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
		}
		for call, part := range [][][]bool{vecs[:tc.vecs], vecs[tc.vecs:]} {
			if err := ba.ApplyStream(part); err != nil {
				t.Fatal(err)
			}
			for _, v := range part {
				if err := ref.Apply(v); err != nil {
					t.Fatal(err)
				}
			}
			captureEnd(ba, nil).requireEqual(t, fmt.Sprintf("workers %d call %d", tc.workers, call), c, captureEnd(ref, nil))
		}
		ba.Close()
	}
}

// TestAutoStrategyResolves checks that Auto resolves to vector batching
// at 4 workers and to sequential execution at 1, for both compiled
// techniques, and that the result still simulates correctly.
func TestAutoStrategyResolves(t *testing.T) {
	for _, tech := range []Technique{TechParallel, TechPCSet} {
		for _, name := range []string{"c432", "c6288"} {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				workers int
				want    ExecStrategy
			}{{4, ExecVectorBatch}, {1, ExecSequential}} {
				e, err := Open(c, tech, WithExec(ExecAuto, tc.workers))
				if err != nil {
					t.Fatal(err)
				}
				if got := e.(Streamer).ExecStrategy(); got != tc.want {
					t.Fatalf("%v/%s: auto at %d workers resolved to %v, want %v", tech, name, tc.workers, got, tc.want)
				}
				ref, err := Open(c, tech)
				if err != nil {
					t.Fatal(err)
				}
				vecs := vectors.Random(19, len(c.Inputs), 3).Bits
				for _, x := range []Engine{e, ref} {
					if err := x.ResetConsistent(nil); err != nil {
						t.Fatal(err)
					}
					if err := x.(Streamer).ApplyStream(vecs); err != nil {
						t.Fatal(err)
					}
				}
				for n := range c.Nets {
					id := NetID(n)
					if ref.Final(id) != e.Final(id) {
						t.Fatalf("%v/%s net %s: seq=%v auto(%v)=%v", tech, name, c.Nets[n].Name, ref.Final(id), tc.want, e.Final(id))
					}
				}
				e.(Closer).Close()
			}
		}
	}
}

// TestAutoNeverShards pins ExecAuto's choice at 2 workers on the PC-set
// compiles of c5315, c6288 and c7552, where level-sharded execution once
// ran several times slower than sequential: Auto picks vector batching.
func TestAutoNeverShards(t *testing.T) {
	for _, name := range []string{"c5315", "c6288", "c7552"} {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Open(c, TechPCSet, WithExec(ExecAuto, 2))
		if err != nil {
			t.Fatal(err)
		}
		if got := e.(Streamer).ExecStrategy(); got != ExecVectorBatch {
			t.Errorf("pcset/%s: auto at 2 workers resolved to %v, want %v", name, got, ExecVectorBatch)
		}
		e.(Closer).Close()
	}
}

// TestPlansReproducible pins that the activity-gated strategy's plan is
// a pure function of the program: on every profile, two independent
// Opens at different worker counts build plans with identical level code
// and statistics, each equal to shard.Partition applied directly to the
// engine's simulation program.
func TestPlansReproducible(t *testing.T) {
	for _, name := range ISCAS85Names() {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		var plans [2]*shard.Plan
		for i, workers := range []int{1, 2} {
			e, err := openParallelSim(c, WithExec(ExecActivityGated, workers))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			core := e.unwrap().core
			plans[i] = core.ExecPlan()
			_, sim := core.Programs()
			direct, err := shard.Partition(sim, core.ScratchStart())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			samePlan(t, name+" vs shard.Partition", plans[i], direct)
			e.Close()
		}
		samePlan(t, name+" across Opens", plans[0], plans[1])
	}
}

// samePlan fails unless two plans have the same statistics and execute
// the same code in every level.
func samePlan(t *testing.T, label string, a, b *shard.Plan) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats %+v / %+v", label, a.Stats(), b.Stats())
	}
	for l := 0; l < a.Stats().Levels; l++ {
		if !reflect.DeepEqual(a.LevelCode(l), b.LevelCode(l)) {
			t.Fatalf("%s: level %d differs", label, l)
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
		{"sharded", 0, false},
		{"shard", 0, false},
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
	for _, s := range []ExecStrategy{ExecSequential, ExecVectorBatch, ExecAuto, ExecActivityGated} {
		back, err := ParseExecStrategy(s.String())
		if err != nil || back != s {
			t.Fatalf("round trip %v: got %v, err %v", s, back, err)
		}
	}
}

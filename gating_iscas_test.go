// Facade tests for the activity-gated execution strategy: gated
// execution must be bit-for-bit identical to sequential execution on
// every benchmark circuit under the streams gating cares about —
// repeated vectors (everything skippable) and single-bit deltas (one
// input cone active). The chaos leg drives a panic into the bookkeeping
// of a level the gates are about to skip.
package udsim

import (
	"math/rand"
	"testing"
	"time"

	"udsim/internal/obs"
	"udsim/internal/resilience/chaos"
	"udsim/internal/vectors"
)

// gatingStream builds the stream the gated engine must survive: a random
// base vector, immediate repeats (a fully idle diff), a walk of
// single-bit deltas (exactly one input cone active per vector), another
// repeat run, then a fresh random vector (everything active at once).
func gatingStream(c *Circuit, seed int64) *vectors.Set {
	width := len(c.Inputs)
	r := vectors.Random(2, width, seed)
	base, fresh := r.Bits[0], r.Bits[1]
	s := &vectors.Set{Width: width}
	add := func(v []bool) { s.Bits = append(s.Bits, append([]bool(nil), v...)) }
	add(base)
	add(base) // repeat: no input toggles at all
	add(base)
	for i := 0; i < width; i += 1 + width/8 { // single-bit deltas
		base[i] = !base[i]
		add(base)
	}
	add(base)  // repeat after the walk
	add(fresh) // fully random step: worst-case diff
	add(fresh)
	return s
}

// TestGatedDeterminismISCAS compares the activity-gated strategy — bare,
// guarded and observed — against the sequential baseline on every
// synthesized ISCAS-85 profile over the repeat/delta stream: identical
// finals on every net after every vector and identical primary-output
// waveforms (a skipped cone must read back its held value, not a stale
// or unflattened field). The strategy ignores its worker count; the
// test passes sim-proved's 2.
// The guarded runs must finish without a fault, so they are compared on
// the gated engine itself rather than on a degraded fallback.
func TestGatedDeterminismISCAS(t *testing.T) {
	names := ISCAS85Names()
	if testing.Short() {
		names = []string{"c432", "c1908", "c6288"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			vecs := gatingStream(c, 1990)
			ref, err := openParallelSim(c)
			if err != nil {
				t.Fatal(err)
			}
			const w = 2
			for _, mode := range []string{"unguarded", "guarded", "observed"} {
				opts := []Option{WithExec(ExecActivityGated, w)}
				switch mode {
				case "guarded":
					opts = append(opts, WithGuard(GuardPolicy{LevelBudget: time.Second}))
				case "observed":
					opts = append(opts, WithObserver(NewObserver(ObserverConfig{})))
				}
				e, err := Open(c, TechParallel, opts...)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", mode, w, err)
				}
				gt := e.(compiledEngine)
				if got := gt.ExecStrategy(); got != ExecActivityGated {
					t.Fatalf("%s workers=%d: strategy %v, want %v", mode, w, got, ExecActivityGated)
				}
				compareParallel(t, ref, gt, vecs, w)
				if g, ok := e.(*GuardedSim); ok && g.Degraded() {
					t.Fatalf("%s workers=%d: guarded run faulted: %v", mode, w, g.LastFault())
				}
				gt.Close()
			}
		})
	}
}

// TestGatedSkipsAreObservable pins the gating counters: a repeated
// vector must skip instruction ranges (the observer's skip counter
// moves) and the decide tallies must report skipped levels, while a
// fresh random vector keeps everything running. The per-executor counts
// must show the first vector after a reset on the sequential form and
// the repeated vector on the level loop.
func TestGatedSkipsAreObservable(t *testing.T) {
	c, err := ISCAS85("c1908")
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObserver(ObserverConfig{})
	gt, err := openParallelSim(c, WithExec(ExecActivityGated, 2), WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	defer gt.Close()
	if err := gt.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	vec := vectors.Random(1, len(c.Inputs), 7).Bits[0]
	if err := gt.Apply(vec); err != nil { // first vector: everything runs
		t.Fatal(err)
	}
	snap := ob.Snapshot()
	if skipped := snap.ShardsSkipped; skipped != 0 {
		t.Fatalf("first vector skipped %d shard slices, want 0", skipped)
	}
	if got := snap.GatedVectors; got != [obs.NumGatedExecutors]int64{obs.GatedSequential: 1} {
		t.Fatalf("first vector after a reset ran on executors %v, want the sequential form", got)
	}
	if err := gt.Apply(vec); err != nil { // identical vector: idle diff
		t.Fatal(err)
	}
	snap = ob.Snapshot()
	if snap.ShardsSkipped == 0 {
		t.Fatal("repeated vector skipped no shard slices")
	}
	if got := snap.GatedVectors; got != [obs.NumGatedExecutors]int64{obs.GatedSequential: 1, obs.GatedCaller: 1} {
		t.Fatalf("repeated vector ran on executors %v, want the caller alone", got)
	}
	vectors2, run, skippedLevels := gt.s.GatingLevels()
	if vectors2 != 2 {
		t.Fatalf("gating decisions = %d, want 2", vectors2)
	}
	if skippedLevels == 0 {
		t.Fatal("repeated vector skipped no levels")
	}
	if run == 0 {
		t.Fatal("no levels ran at all")
	}
}

// TestGatedLongLowActivityGuardedStream drives one guarded batch of
// 3 000 single-bit-delta vectors through the gated engine on c6288 with
// a 100 ms level budget — far below the batch's length, and above the
// scheduling delays a loaded 2-vCPU test machine imposes between two
// levels (5 ms is not: runs descheduled that long stall), ×raceSlowdown
// under the race detector. Each vector runs on the sequential form or on
// the level loop, which times its own levels against the budget, so
// only a level, never the batch, may count against it. The batch must end undegraded, with every net's final
// equal to sequential execution's.
func TestGatedLongLowActivityGuardedStream(t *testing.T) {
	c, err := ISCAS85("c6288")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1990))
	cur := vectors.Random(1, len(c.Inputs), 1990).Bits[0]
	vecs := make([][]bool, 3000)
	for i := range vecs {
		if i > 0 {
			k := r.Intn(len(cur))
			cur[k] = !cur[k]
		}
		vecs[i] = append([]bool(nil), cur...)
	}
	eng, err := Open(c, TechParallel,
		WithExec(ExecActivityGated, 2),
		WithGuard(GuardPolicy{LevelBudget: raceSlowdown * 100 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	g := eng.(*GuardedSim)
	defer g.Close()
	if err := g.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyStream(vecs); err != nil {
		t.Fatal(err)
	}
	if g.Degraded() {
		t.Fatalf("low-activity guarded stream degraded: %v", g.LastFault())
	}
	want := referenceFinals(t, c, TechParallel, vecs)
	for n := range want {
		if got := g.Final(NetID(n)); got != want[n] {
			t.Fatalf("net %d settled to %v, sequential %v", n, got, want[n])
		}
	}
}

// TestChaosGatedSkippedShard is the gating leg of the chaos suite: the
// injector fires in the per-level bookkeeping *before* the gate check,
// so a panic planted at a level the repeat-vector diff is about to skip
// must still be absorbed by the guard — degrade to sequential replay
// with finals bit-identical to an unguarded sequential engine.
func TestChaosGatedSkippedShard(t *testing.T) {
	for _, name := range chaosCircuits() {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			// Repeats of one vector: from the second vector on, every level
			// is gate-skipped, so run 3's injection lands in skipped-shard
			// bookkeeping.
			vec := vectors.Random(1, len(c.Inputs), 808).Bits[0]
			vecs := [][]bool{vec, vec, vec, vec, vec, vec}
			inj := chaos.PanicAt(3, 1, 0)
			ob := NewObserver(ObserverConfig{})
			eng, err := Open(c, TechParallel,
				WithGuard(chaosPolicy()),
				WithFaultInjection(inj),
				WithExec(ExecActivityGated, 2),
				WithObserver(ob))
			if err != nil {
				t.Fatal(err)
			}
			g := eng.(*GuardedSim)
			defer g.Close()
			if err := g.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
			if err := g.ApplyStream(vecs); err != nil {
				t.Fatalf("guarded gated stream did not absorb the panic: %v", err)
			}
			if !inj.Fired() {
				t.Fatal("panic injector never fired")
			}
			if !g.Degraded() {
				t.Fatal("panic in skipped-shard bookkeeping did not quarantine the plan")
			}
			if f := g.LastFault(); f == nil || f.Kind != FaultPanic {
				t.Fatalf("LastFault = %v, want a panic fault", f)
			}
			checkFinals(t, g, referenceFinals(t, c, TechParallel, vecs))
			if snap := ob.Snapshot(); snap.Guard.Panics != 1 || snap.Guard.Quarantines != 1 {
				t.Fatalf("guard counters: %+v, want 1 panic / 1 quarantine", snap.Guard)
			}
		})
	}
}

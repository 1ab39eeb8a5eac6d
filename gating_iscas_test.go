// Facade tests for the activity-gated execution strategy and the
// level-fusion planner pass: gated execution (with and without fusion)
// must be bit-for-bit identical to sequential execution on every
// benchmark circuit under the streams gating cares about — repeated
// vectors (everything skippable) and single-bit deltas (one input cone
// active) — and a fused plan must actually delete barriers while
// staying clean under the replica rule V015. The chaos leg drives a
// panic into the bookkeeping of a level the gates are about to skip.
package udsim

import (
	"testing"
	"time"

	"udsim/internal/resilience/chaos"
	"udsim/internal/vectors"
	"udsim/internal/verify"
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

// TestGatedDeterminismISCAS compares the activity-gated strategy — plain
// and level-fused, bare, guarded and observed — against the sequential
// baseline on every synthesized ISCAS-85 profile, at worker counts
// {1, 2, 4}, over the repeat/delta stream: identical finals on every net
// after every vector and identical primary-output waveforms (a skipped
// cone must read back its held value, not a stale or unflattened field).
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
			for _, mode := range []string{"unguarded", "guarded", "observed"} {
				for _, fused := range []bool{false, true} {
					for _, w := range []int{1, 2, 4} {
						opts := []Option{WithExec(ExecActivityGated, w)}
						label := mode + "/plain"
						if fused {
							opts = append(opts, WithLevelFusion())
							label = mode + "/fused"
						}
						switch mode {
						case "guarded":
							opts = append(opts, WithGuard(GuardPolicy{LevelBudget: time.Second, QuarantineGrace: time.Second}))
						case "observed":
							opts = append(opts, WithObserver(NewObserver(ObserverConfig{})))
						}
						e, err := Open(c, TechParallel, opts...)
						if err != nil {
							t.Fatalf("%s workers=%d: %v", label, w, err)
						}
						gt := e.(compiledEngine)
						if got := gt.ExecStrategy(); got != ExecActivityGated {
							t.Fatalf("%s workers=%d: strategy %v, want %v", label, w, got, ExecActivityGated)
						}
						compareParallel(t, ref, gt, vecs, w)
						if g, ok := e.(*GuardedSim); ok && g.Degraded() {
							t.Fatalf("%s workers=%d: guarded run faulted: %v", label, w, g.LastFault())
						}
						gt.Close()
					}
				}
			}
		})
	}
}

// TestGatedSkipsAreObservable pins the gating counters: a repeated
// vector must skip shard slices (the observer's skip counter moves) and
// the decide tallies must report skipped levels, while a fresh random
// vector keeps everything running.
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
	if skipped := ob.Snapshot().ShardsSkipped; skipped != 0 {
		t.Fatalf("first vector skipped %d shard slices, want 0", skipped)
	}
	if err := gt.Apply(vec); err != nil { // identical vector: idle diff
		t.Fatal(err)
	}
	snap := ob.Snapshot()
	if snap.ShardsSkipped == 0 {
		t.Fatal("repeated vector skipped no shard slices")
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

// TestLevelFusionDeletesBarriers checks the fusion pass has teeth on the
// deep profiles — the fused plan must have at least 30% fewer levels
// (each level is one barrier crossing per worker) — and that the fused
// plan's exported assignment carries replicated cones for rule V015,
// which must then report the plan clean.
func TestLevelFusionDeletesBarriers(t *testing.T) {
	// Measured reductions on these deep profiles: c880 24→13 (46%),
	// c1355 27→11 (59%), c1908 40→28 (30%). The assertion keeps slack
	// below the measured values because the fusion budget derives from
	// CalibrateBarrier, which varies with machine load.
	for _, name := range []string{"c880", "c1355", "c1908"} {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := openParallelSim(c, WithExec(ExecSharded, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			fused, err := openParallelSim(c, WithExec(ExecSharded, 2), WithLevelFusion())
			if err != nil {
				t.Fatal(err)
			}
			defer fused.Close()

			before := plain.s.ExecPlan().Stats().Levels
			st := fused.s.ExecPlan().Stats()
			if st.Levels > before*3/4 {
				t.Errorf("fusion left %d of %d levels (>75%%); barriers deleted = %d",
					st.Levels, before, st.BarriersDeleted)
			}
			if st.BarriersDeleted == 0 || st.FusedLevels == 0 {
				t.Errorf("fusion stats empty: %+v", st)
			}

			spec := fused.s.Spec()
			if spec.Shards == nil || spec.Shards.Aug == nil || len(spec.Shards.Aug.Replicas) == 0 {
				t.Fatal("fused plan exports no replicas; rule V015 has nothing to check")
			}
			rep, err := Verify(fused, VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if n := rep.Count(verify.SevError); n != 0 {
				t.Fatalf("fused plan has %d verification errors:\n%v", n, rep)
			}
		})
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
				WithLevelFusion(),
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

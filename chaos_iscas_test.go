package udsim

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"udsim/internal/levelize"
	"udsim/internal/obs"
	"udsim/internal/resilience"
	"udsim/internal/resilience/chaos"
	"udsim/internal/vectors"
)

// The chaos suite: every injection kind — panic, silent state
// corruption, level stall, mid-stream cancellation — on every ISCAS-85
// profile circuit, against the guarded engine. The parallel engine runs
// activity-gated, and the drilled vector (run 3) repeats the one before
// it, so the gated engine runs it on its level loop, the only path with
// per-level injection points and a level budget. The PC-set engine has
// no gating; it runs sequentially, with one injection point before each
// run. The invariants:
//
//   - every injection yields a typed *EngineFault (internally for the
//     recovered kinds, at the caller for cancellation) — never a crash,
//     never a hang;
//   - after graceful degradation the guarded outputs are bit-identical
//     to a plain sequential engine fed the same stream;
//   - every fault and recovery action lands in the udsim_guard_* counter
//     families of the metrics export.

func chaosCircuits() []string {
	if testing.Short() {
		return []string{"c432", "c1908"}
	}
	return ISCAS85Names()
}

// chaosPolicy is the guard configuration the scenarios run under: a
// tight level budget, sequential retries, per-vector output
// cross-checks. The level budget is ×raceSlowdown under the race
// detector, where a descheduled level on a loaded 2-vCPU machine can
// overrun 25 ms and quarantine the plan before the planted fault is
// reached.
func chaosPolicy() GuardPolicy {
	return GuardPolicy{
		LevelBudget:     raceSlowdown * 25 * time.Millisecond,
		MaxRetries:      2,
		RetryBackoff:    time.Millisecond,
		CrossCheckEvery: 1,
	}
}

// chaosStream draws the six-vector stream a scenario drills: random,
// except that vector 3 repeats vector 2, so a gated engine runs the
// drilled vector on its level loop.
func chaosStream(c *Circuit, seed int64) [][]bool {
	vecs := vectors.Random(6, len(c.Inputs), seed).Bits
	vecs[2] = append([]bool(nil), vecs[1]...)
	return vecs
}

// referenceFinals replays vecs on a plain sequential engine of the same
// technique and returns every net's settled value.
func referenceFinals(t *testing.T, c *Circuit, tech Technique, vecs [][]bool) []bool {
	t.Helper()
	ref, err := Open(c, tech)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := ref.(Streamer).ApplyStream(vecs); err != nil {
		t.Fatal(err)
	}
	rc := ref.Circuit()
	finals := make([]bool, len(rc.Nets))
	for i := range finals {
		finals[i] = ref.Final(NetID(i))
	}
	return finals
}

// openGuarded builds a guarded engine with an observer attached: the
// parallel technique activity-gated, the PC-set method sequential.
func openGuarded(t *testing.T, c *Circuit, tech Technique, inj FaultInjector, pol GuardPolicy) (*GuardedSim, *Observer) {
	t.Helper()
	ob := NewObserver(ObserverConfig{})
	opts := []Option{WithGuard(pol), WithFaultInjection(inj), WithObserver(ob)}
	if tech == TechParallel {
		opts = append(opts, WithExec(ExecActivityGated, 1))
	}
	eng, err := Open(c, tech, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := eng.(*GuardedSim)
	if !ok {
		t.Fatalf("Open with WithGuard returned %T, want *GuardedSim", eng)
	}
	if err := g.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	return g, ob
}

// checkFinals compares every net's settled value against the reference.
func checkFinals(t *testing.T, g *GuardedSim, want []bool) {
	t.Helper()
	for i := range want {
		if got := g.Final(NetID(i)); got != want[i] {
			t.Fatalf("net %d settled to %v after degradation, sequential reference %v",
				i, got, want[i])
		}
	}
}

// shallowOutput picks the primary output with the lowest logic level —
// its final bit is written early in the schedule, so a corruption
// injected at the last level survives to the cross-check.
func shallowOutput(t *testing.T, c *Circuit) NetID {
	t.Helper()
	lv, err := levelize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	best := c.Outputs[0]
	for _, o := range c.Outputs {
		if lv.NetLevel[o] < lv.NetLevel[best] {
			best = o
		}
	}
	if lv.NetLevel[best] >= lv.Depth {
		t.Skipf("every output is at the maximum depth %d; no late level to corrupt from", lv.Depth)
	}
	return best
}

func TestChaosPanicISCAS(t *testing.T) {
	for _, name := range chaosCircuits() {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			vecs := chaosStream(c, 101)
			inj := chaos.PanicAt(3, 0, 0)
			g, ob := openGuarded(t, c, TechParallel, inj, chaosPolicy())
			defer g.Close()

			if err := g.ApplyStream(vecs); err != nil {
				t.Fatalf("guarded stream did not absorb the panic: %v", err)
			}
			if !inj.Fired() {
				t.Fatal("panic injector never fired")
			}
			if !g.Degraded() {
				t.Fatal("panic did not quarantine the gated strategy")
			}
			f := g.LastFault()
			if f == nil || f.Kind != FaultPanic {
				t.Fatalf("LastFault = %v, want a panic fault", f)
			}
			if g.ExecStrategy() != ExecSequential {
				t.Fatalf("ExecStrategy() = %v after quarantine, want sequential", g.ExecStrategy())
			}
			checkFinals(t, g, referenceFinals(t, c, TechParallel, vecs))

			snap := ob.Snapshot()
			if snap.Guard.Panics != 1 || snap.Guard.Quarantines != 1 {
				t.Fatalf("guard counters: %+v, want 1 panic / 1 quarantine", snap.Guard)
			}
			if snap.Guard.ReplayedVectors == 0 {
				t.Fatal("degradation replayed no vectors")
			}
		})
	}
}

func TestChaosCorruptionISCAS(t *testing.T) {
	for _, name := range chaosCircuits() {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			vecs := chaosStream(c, 202)
			// Build once without injection to locate the target bit and the
			// last level, then rebuild with the armed injector.
			probe, _ := openGuarded(t, c, TechParallel, nil, chaosPolicy())
			out := shallowOutput(t, probe.Circuit())
			slot, mask, last := probe.FaultTarget(out)
			probe.Close()

			inj := chaos.CorruptBits(3, last, 0, slot, mask)
			g, ob := openGuarded(t, c, TechParallel, inj, chaosPolicy())
			defer g.Close()

			if err := g.ApplyStream(vecs); err != nil {
				t.Fatalf("guarded stream did not absorb the corruption: %v", err)
			}
			if !inj.Fired() {
				t.Fatal("corruption injector never fired")
			}
			if !g.Degraded() {
				t.Fatal("cross-check did not catch the corrupted output")
			}
			f := g.LastFault()
			if f == nil || f.Kind != FaultCorruption || !errors.Is(f, resilience.ErrCrossCheck) {
				t.Fatalf("LastFault = %v, want a cross-check corruption fault", f)
			}
			checkFinals(t, g, referenceFinals(t, c, TechParallel, vecs))

			snap := ob.Snapshot()
			if snap.Guard.Corruptions != 1 || snap.Guard.Mismatches != 1 {
				t.Fatalf("guard counters: %+v, want 1 corruption / 1 mismatch", snap.Guard)
			}
			if snap.Guard.CrossChecks == 0 {
				t.Fatal("no cross-checks recorded")
			}
		})
	}
}

func TestChaosStallISCAS(t *testing.T) {
	for _, name := range chaosCircuits() {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			vecs := chaosStream(c, 303)
			// Six times chaosPolicy's level budget, at either race setting.
			inj := chaos.Delay(3, 0, 0, raceSlowdown*150*time.Millisecond)
			g, ob := openGuarded(t, c, TechParallel, inj, chaosPolicy())
			defer g.Close()

			t0 := time.Now()
			if err := g.ApplyStream(vecs); err != nil {
				t.Fatalf("guarded stream did not absorb the stall: %v", err)
			}
			if d := time.Since(t0); d > 10*time.Second {
				t.Fatalf("stream took %v; the level budget did not bound the stall", d)
			}
			if !g.Degraded() {
				t.Fatal("stall did not quarantine the gated strategy")
			}
			f := g.LastFault()
			if f == nil || f.Kind != FaultDeadline || !errors.Is(f, resilience.ErrBarrierStall) {
				t.Fatalf("LastFault = %v, want a level-stall deadline fault", f)
			}
			checkFinals(t, g, referenceFinals(t, c, TechParallel, vecs))

			if snap := ob.Snapshot(); snap.Guard.Deadlines != 1 {
				t.Fatalf("guard counters: %+v, want 1 deadline", snap.Guard)
			}
		})
	}
}

func TestChaosCancelISCAS(t *testing.T) {
	for _, name := range chaosCircuits() {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			vecs := chaosStream(c, 404)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := chaos.CancelAfter(cancel, 3)
			g, ob := openGuarded(t, c, TechParallel, inj, chaosPolicy())
			defer g.Close()

			err = g.ApplyStreamCtx(ctx, vecs)
			f, ok := AsEngineFault(err)
			if !ok || f.Kind != FaultCanceled {
				t.Fatalf("canceled stream returned %v, want FaultCanceled", err)
			}
			// Cancellation rolled the batch back to its checkpoint: replaying
			// the full stream from here must match a fresh sequential run.
			if err := g.ApplyStream(vecs); err != nil {
				t.Fatalf("stream after cancellation rollback failed: %v", err)
			}
			checkFinals(t, g, referenceFinals(t, c, TechParallel, vecs))

			if snap := ob.Snapshot(); snap.Guard.Cancels == 0 {
				t.Fatalf("guard counters: %+v, want a recorded cancellation", snap.Guard)
			}
		})
	}
}

// TestChaosPCSet runs the panic and corruption scenarios against the
// guarded PC-set engine — the second compiled technique behind the same
// facade, run sequentially. Its one injection point is before each run,
// after the inputs are written, so the corruption leg flips a primary
// input's word there: the drilled vector and the input are chosen so
// that the flip changes a primary output, so the corrupted run's outputs
// are wrong and the cross-check must catch them.
func TestChaosPCSet(t *testing.T) {
	for _, name := range chaosCircuits() {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			vecs := vectors.Random(6, len(c.Inputs), 505).Bits

			t.Run("panic", func(t *testing.T) {
				inj := chaos.PanicAt(3, 0, 0)
				g, _ := openGuarded(t, c, TechPCSet, inj, chaosPolicy())
				defer g.Close()
				if err := g.ApplyStream(vecs); err != nil {
					t.Fatalf("guarded stream did not absorb the panic: %v", err)
				}
				if !g.Degraded() || g.LastFault() == nil || g.LastFault().Kind != FaultPanic {
					t.Fatalf("degraded=%v fault=%v, want panic degradation", g.Degraded(), g.LastFault())
				}
				checkFinals(t, g, referenceFinals(t, c, TechPCSet, vecs))
			})

			t.Run("corrupt", func(t *testing.T) {
				probe, _ := openGuarded(t, c, TechPCSet, nil, chaosPolicy())
				vecs := append([][]bool(nil), vecs...)
				var pi int
				vecs[2], pi = sensitizedInput(t, c)
				s := probe.compiledEngine.(*PCSetSim).s
				slot, mask := int(s.Inputs()[pi].Base), s.Mask()
				probe.Close()

				inj := chaos.CorruptBits(3, 0, 0, slot, mask)
				g, _ := openGuarded(t, c, TechPCSet, inj, chaosPolicy())
				defer g.Close()
				if err := g.ApplyStream(vecs); err != nil {
					t.Fatalf("guarded stream did not absorb the corruption: %v", err)
				}
				if !g.Degraded() || g.LastFault() == nil || g.LastFault().Kind != FaultCorruption {
					t.Fatalf("degraded=%v fault=%v, want corruption degradation", g.Degraded(), g.LastFault())
				}
				checkFinals(t, g, referenceFinals(t, c, TechPCSet, vecs))
			})
		})
	}
}

// sensitizedInput returns a vector and a primary input whose flip
// changes some primary output's settled value under that vector: the
// first such pair among a fixed set of random vectors. (The synthesized
// profiles mask most single-input flips: c3540's first sensitized
// vector of this set is its 47th.)
func sensitizedInput(t *testing.T, c *Circuit) ([]bool, int) {
	t.Helper()
	z, err := NewZeroDelayInterpreted(c)
	if err != nil {
		t.Fatal(err)
	}
	outputs := func(vec []bool) string {
		if err := z.ApplyVector(vec); err != nil {
			t.Fatal(err)
		}
		b := make([]byte, len(c.Outputs))
		for i, o := range c.Outputs {
			b[i] = byte(z.Value(o))
		}
		return string(b)
	}
	for _, vec := range vectors.Random(200, len(c.Inputs), 909).Bits {
		want := outputs(vec)
		for i := range vec {
			vec[i] = !vec[i]
			got := outputs(vec)
			vec[i] = !vec[i]
			if got != want {
				return vec, i
			}
		}
	}
	t.Fatal("no single input flip reaches a primary output")
	return nil, -1
}

// TestChaosExport checks the guard counters reach the Prometheus text
// export: the udsim_guard_* families are present, carry the fault, and
// the export still validates.
func TestChaosExport(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	vecs := vectors.Random(6, len(c.Inputs), 606).Bits
	g, ob := openGuarded(t, c, TechParallel, chaos.PanicAt(2, 0, 0), chaosPolicy())
	defer g.Close()
	if err := g.ApplyStream(vecs); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ob.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"udsim_guard_faults_total",
		"udsim_guard_retries_total",
		"udsim_guard_quarantines_total",
		"udsim_guard_replayed_vectors_total",
		"udsim_guard_crosschecks_total",
		"udsim_guard_crosscheck_mismatches_total",
	} {
		if !strings.Contains(out, "# TYPE "+family+" counter") {
			t.Errorf("export missing guard family %s", family)
		}
	}
	if !strings.Contains(out, `kind="panic"`) {
		t.Error("export missing per-kind fault labels")
	}
	if err := obs.ValidateText(strings.NewReader(out)); err != nil {
		t.Fatalf("guarded export does not validate: %v", err)
	}
}

// TestGuardOptionValidation pins the option plumbing: guards require
// Open and a compiled technique, and injection requires a guard.
func TestGuardOptionValidation(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(c, TechEvent3, WithGuard(DefaultGuardPolicy())); err == nil {
		t.Error("WithGuard accepted for an interpreted technique")
	}
	if _, err := Open(c, TechParallel, WithFaultInjection(chaos.PanicAt(1, 0, 0))); err == nil {
		t.Error("WithFaultInjection accepted without WithGuard")
	}
	eng, err := Open(c, TechParallel, WithGuard(DefaultGuardPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.(Closer).Close()
	if name := eng.EngineName(); !strings.HasSuffix(name, "+guarded") {
		t.Errorf("EngineName() = %q, want a +guarded suffix", name)
	}
}

// BenchmarkGuardedStream measures the guard's unfaulted steady-state
// overhead against the bare engine. The gated cases run a 1%-toggle
// stream, so the guarded level loop's per-level checks run. The guarded
// loop must stay at 0 allocs/op: checkpoints reuse their buffers.
func BenchmarkGuardedStream(b *testing.B) {
	c, err := ISCAS85("c1908")
	if err != nil {
		b.Fatal(err)
	}
	vecs := toggleStream(64, len(c.Inputs), 0.01, 1990)
	pol := GuardPolicy{LevelBudget: time.Second}

	run := func(b *testing.B, eng Engine) {
		b.Helper()
		if err := eng.ResetConsistent(nil); err != nil {
			b.Fatal(err)
		}
		s := eng.(Streamer)
		if err := s.ApplyStream(vecs); err != nil { // warm-up: checkpoint buffers
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(vecs)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.ApplyStream(vecs); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("unguarded", func(b *testing.B) {
		eng, err := Open(c, TechParallel, WithExec(ExecActivityGated, 1))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.(Closer).Close()
		run(b, eng)
	})
	b.Run("guarded", func(b *testing.B) {
		eng, err := Open(c, TechParallel, WithGuard(pol), WithExec(ExecActivityGated, 1))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.(Closer).Close()
		run(b, eng)
	})
	b.Run("guarded-sequential", func(b *testing.B) {
		eng, err := Open(c, TechParallel, WithGuard(pol))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.(Closer).Close()
		run(b, eng)
	})
	b.Run("pcset-guarded-sequential", func(b *testing.B) {
		eng, err := Open(c, TechPCSet, WithGuard(pol))
		if err != nil {
			b.Fatal(err)
		}
		defer eng.(Closer).Close()
		run(b, eng)
	})
}

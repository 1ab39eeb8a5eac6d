package shard

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"udsim/internal/resilience"
	"udsim/internal/resilience/chaos"
)

// guardFixture builds a random program, a plan and fresh state for
// guarded-run tests, plus the sequential reference result.
func guardFixture(t *testing.T, seed int64, workers int) (*Plan, []uint64, []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, scratchStart := genProgram(t, rng, 60, 8, 50)
	plan, err := Partition(p, scratchStart, workers)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]uint64, plan.StateSize())
	for i := range init[:scratchStart] {
		init[i] = rng.Uint64()
	}
	want := append([]uint64(nil), init[:p.NumVars]...)
	p.Run(want)
	st := append([]uint64(nil), init...)
	return plan, st, want[:scratchStart]
}

// TestRunCtxCleanEquivalence: an unfaulted guarded run must be
// bit-identical to sequential execution, at every worker count.
func TestRunCtxCleanEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		plan, st, want := guardFixture(t, 11, workers)
		e := NewEngine(plan)
		if err := e.RunCtx(context.Background(), st); err != nil {
			t.Fatalf("workers %d: clean guarded run failed: %v", workers, err)
		}
		for i, w := range want {
			if st[i] != w {
				t.Fatalf("workers %d: slot %d = %#x, sequential %#x", workers, i, st[i], w)
			}
		}
		// The engine is reusable after a clean guarded run.
		if err := e.RunCtx(context.Background(), st); err != nil {
			t.Fatalf("workers %d: second guarded run failed: %v", workers, err)
		}
		e.Close()
	}
}

// TestRunCtxPanicFault: an injected worker panic surfaces as a typed
// fault with the injection coordinates, poisons the engine, and never
// crashes the process.
func TestRunCtxPanicFault(t *testing.T) {
	plan, st, _ := guardFixture(t, 12, 4)
	e := NewEngine(plan)
	defer e.Close()
	e.SetInjector(chaos.PanicAt(1, 0, 1))

	err := e.RunCtx(context.Background(), st)
	f, ok := resilience.AsFault(err)
	if !ok {
		t.Fatalf("RunCtx returned %v, want *EngineFault", err)
	}
	if f.Kind != resilience.FaultPanic || f.Level != 0 || f.Shard != 1 {
		t.Fatalf("fault = %v, want injected panic at level 0 shard 1", f)
	}
	if e.Fault() != f {
		t.Fatal("Fault() does not return the poisoning fault")
	}
	if e.Leaked() {
		t.Fatal("panicked run leaked a worker; all parties should have drained")
	}

	// Poisoned: only Close remains; further runs are refused, typed.
	err = e.RunCtx(context.Background(), st)
	if !errors.Is(err, resilience.ErrQuarantined) {
		t.Fatalf("poisoned engine returned %v, want ErrQuarantined", err)
	}
}

// TestRunCtxStall: a worker wedged past the level budget is a barrier
// stall fault instead of a hang. With several workers the watchdog sees
// the crossing stuck; a one-worker run crosses no barrier, so it checks
// the budget between levels itself and names the wedged (level, shard).
func TestRunCtxStall(t *testing.T) {
	for _, workers := range []int{4, 1} {
		plan, st, _ := guardFixture(t, 13, workers)
		e := NewEngine(plan)
		e.SetGuard(20*time.Millisecond, 5*time.Second)
		shard := min(1, workers-1)
		e.SetInjector(chaos.Delay(1, 0, shard, 300*time.Millisecond))

		t0 := time.Now()
		err := e.RunCtx(context.Background(), st)
		f, ok := resilience.AsFault(err)
		if !ok {
			t.Fatalf("workers %d: RunCtx returned %v, want *EngineFault", workers, err)
		}
		if f.Kind != resilience.FaultDeadline || !errors.Is(f, resilience.ErrBarrierStall) {
			t.Fatalf("workers %d: fault = %v, want a barrier stall", workers, f)
		}
		if workers == 1 && (f.Level != 0 || f.Shard != shard) {
			t.Fatalf("solo stall witnessed at level %d shard %d, want level 0 shard %d", f.Level, f.Shard, shard)
		}
		if e.Leaked() {
			t.Fatalf("workers %d: generous grace should have drained the sleeper", workers)
		}
		if d := time.Since(t0); d > 2*time.Second {
			t.Fatalf("workers %d: stall detection took %v; the watchdog is not working", workers, d)
		}
		if !errors.Is(e.RunCtx(context.Background(), st), resilience.ErrQuarantined) {
			t.Fatalf("workers %d: engine not quarantined after a stall", workers)
		}
		e.Close()
	}
}

// TestRunCtxStallLeak: a worker wedged past the quarantine grace is
// abandoned; RunCtx returns (Leaked true) and Close does not hang on it.
func TestRunCtxStallLeak(t *testing.T) {
	plan, st, _ := guardFixture(t, 14, 4)
	e := NewEngine(plan)
	e.SetGuard(10*time.Millisecond, 30*time.Millisecond)
	e.SetInjector(chaos.Delay(1, 0, 1, 500*time.Millisecond))

	err := e.RunCtx(context.Background(), st)
	if _, ok := resilience.AsFault(err); !ok {
		t.Fatalf("RunCtx returned %v, want *EngineFault", err)
	}
	if !e.Leaked() {
		t.Fatal("expected the wedged worker to be abandoned")
	}
	done := make(chan struct{})
	go func() { e.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a leaked worker")
	}
	// st was handed to a goroutine that may still write it: nothing here
	// reads it again — exactly the contract DetachState enforces upstream.
}

// TestRunCtxCancel: a canceled context is refused up front and, via the
// watchdog, also aborts a run already in flight.
func TestRunCtxCancel(t *testing.T) {
	plan, st, _ := guardFixture(t, 15, 4)
	e := NewEngine(plan)
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunCtx(ctx, st)
	f, ok := resilience.AsFault(err)
	if !ok || f.Kind != resilience.FaultCanceled {
		t.Fatalf("pre-canceled RunCtx returned %v, want FaultCanceled", err)
	}
	// The precheck refused the run without touching the barrier: not
	// poisoned, still usable.
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("engine unusable after refused run: %v", err)
	}
}

// TestRunCtxCancelMidStream: cancellation between runs (the chaos
// cancel injector fires at BeginRun of the trigger run) aborts that run
// with a typed fault.
func TestRunCtxCancelMidStream(t *testing.T) {
	plan, st, _ := guardFixture(t, 16, 4)
	e := NewEngine(plan)
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetInjector(chaos.CancelAfter(cancel, 3))

	var err error
	runs := 0
	for runs = 1; runs <= 5; runs++ {
		if err = e.RunCtx(ctx, st); err != nil {
			break
		}
	}
	f, ok := resilience.AsFault(err)
	if !ok || f.Kind != resilience.FaultCanceled {
		t.Fatalf("run %d returned %v, want FaultCanceled", runs, err)
	}
	if runs != 3 {
		t.Fatalf("canceled on run %d, injector armed for run 3", runs)
	}
}

// TestRunCtxSoloGuard: the workers==1 guarded path isolates panics
// (poisoning) but survives cancellation (nothing shared was damaged).
func TestRunCtxSoloGuard(t *testing.T) {
	plan, st, want := guardFixture(t, 17, 1)
	e := NewEngine(plan)
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunCtx(ctx, st)
	if f, ok := resilience.AsFault(err); !ok || f.Kind != resilience.FaultCanceled {
		t.Fatalf("solo canceled run returned %v, want FaultCanceled", err)
	}
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("solo engine unusable after cancellation: %v", err)
	}
	for i, w := range want {
		if st[i] != w {
			t.Fatalf("slot %d = %#x, sequential %#x", i, st[i], w)
		}
	}

	e.SetInjector(chaos.PanicAt(1, 0, 0))
	err = e.RunCtx(context.Background(), st)
	if f, ok := resilience.AsFault(err); !ok || f.Kind != resilience.FaultPanic {
		t.Fatalf("solo panic returned %v, want FaultPanic", err)
	}
	if !errors.Is(e.RunCtx(context.Background(), st), resilience.ErrQuarantined) {
		t.Fatal("solo engine not quarantined after a panic")
	}
}

// TestRunCtxCorruptionIsSilentHere: state corruption does not fault at
// the engine layer — detecting it is the facade cross-check's job — but
// it must actually corrupt, or the chaos scenario tests prove nothing.
func TestRunCtxCorruptionIsSilentHere(t *testing.T) {
	plan, st, want := guardFixture(t, 18, 2)
	e := NewEngine(plan)
	defer e.Close()
	// Flip a persistent word between the last two levels so no gate
	// recomputes it (slot 0 is written only at its own level).
	e.SetInjector(chaos.CorruptBits(1, e.Levels()-1, 0, 0, 1<<63))

	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("corruption faulted at the engine layer: %v", err)
	}
	diff := 0
	for i, w := range want {
		if st[i] != w {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("corruption injector had no effect")
	}
}

// TestRunCtxCallerOnly: a gated engine runs on the caller alone and is
// supervised like a one-worker run of the same plan. It is bit-identical
// to sequential execution, alternating with ungated runs on every
// worker; a panic is recorded with its (level, shard) and poisons the
// engine; an overrun of the budget is a stall fault at the wedged
// (level, shard); and a context ending between levels returns a fault
// without poisoning. ArmStream leaves a gated engine unarmed, so all of
// this holds inside a guarded batch too.
func TestRunCtxCallerOnly(t *testing.T) {
	plan, st, want := guardFixture(t, 19, 4)
	init := append([]uint64(nil), st...)
	e := NewEngine(plan)
	for run := 0; run < 8; run++ {
		copy(st, init)
		gateAll(e, run%2 == 0)
		var err error
		if run%4 < 2 {
			err = e.RunCtx(context.Background(), st)
		} else {
			e.Run(st)
		}
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, w := range want {
			if st[i] != w {
				t.Fatalf("run %d (caller-only %v): slot %d = %#x, sequential %#x", run, run%2 == 0, i, st[i], w)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	e.SetInjector(chaos.CancelAfter(cancel, 1))
	gateAll(e, true)
	e.ArmStream(ctx)
	if e.streamArmed {
		t.Fatal("ArmStream armed the watchdog of a gated engine")
	}
	if f, ok := resilience.AsFault(e.RunCtx(ctx, st)); !ok || f.Kind != resilience.FaultCanceled {
		t.Fatalf("canceled caller-only run returned %v, want FaultCanceled", f)
	}
	e.DisarmStream()
	e.SetInjector(nil)
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("caller-only engine unusable after cancellation: %v", err)
	}

	e.SetInjector(chaos.PanicAt(1, 1, 2))
	f, ok := resilience.AsFault(e.RunCtx(context.Background(), st))
	if !ok || f.Kind != resilience.FaultPanic || f.Level != 1 || f.Shard != 2 {
		t.Fatalf("caller-only panic = %v, want a panic at level 1 shard 2", f)
	}
	if e.Fault() != f || e.Leaked() {
		t.Fatalf("Fault() = %v, Leaked() = %v after a caller-only panic", e.Fault(), e.Leaked())
	}
	if !errors.Is(e.RunCtx(context.Background(), st), resilience.ErrQuarantined) {
		t.Fatal("caller-only engine not quarantined after a panic")
	}
	e.Close()

	e = NewEngine(plan)
	defer e.Close()
	gateAll(e, true)
	e.SetGuard(20*time.Millisecond, 5*time.Second)
	e.SetInjector(chaos.Delay(1, 0, 3, 100*time.Millisecond))
	e.ArmStream(context.Background())
	defer e.DisarmStream()
	f, ok = resilience.AsFault(e.RunCtx(context.Background(), st))
	if !ok || !errors.Is(f, resilience.ErrBarrierStall) || f.Level != 0 || f.Shard != 3 {
		t.Fatalf("caller-only stall = %v, want a barrier stall at level 0 shard 3", f)
	}
}

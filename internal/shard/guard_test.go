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
func guardFixture(t *testing.T, seed int64) (*Plan, []uint64, []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, scratchStart := genProgram(t, rng, 60, 8, 50)
	plan, err := Partition(p, scratchStart)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]uint64, p.NumVars)
	for i := range init[:scratchStart] {
		init[i] = rng.Uint64()
	}
	want := append([]uint64(nil), init[:p.NumVars]...)
	p.Run(want)
	st := append([]uint64(nil), init...)
	return plan, st, want[:scratchStart]
}

// TestRunCtxCleanEquivalence: an unfaulted guarded run must be
// bit-identical to sequential execution.
func TestRunCtxCleanEquivalence(t *testing.T) {
	plan, st, want := guardFixture(t, 11)
	e := NewEngine(plan)
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("clean guarded run failed: %v", err)
	}
	for i, w := range want {
		if st[i] != w {
			t.Fatalf("slot %d = %#x, sequential %#x", i, st[i], w)
		}
	}
	// The engine is reusable after a clean guarded run.
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("second guarded run failed: %v", err)
	}
}

// TestRunCtxPanicFault: an injected panic surfaces as a typed fault with
// the injection coordinates, poisons the engine, and never crashes the
// process.
func TestRunCtxPanicFault(t *testing.T) {
	plan, st, _ := guardFixture(t, 12)
	e := NewEngine(plan)
	e.SetInjector(chaos.PanicAt(1, 1))

	err := e.RunCtx(context.Background(), st)
	f, ok := resilience.AsFault(err)
	if !ok {
		t.Fatalf("RunCtx returned %v, want *EngineFault", err)
	}
	if f.Kind != resilience.FaultPanic || f.Level != 1 {
		t.Fatalf("fault = %v, want injected panic at level 1", f)
	}
	if e.Fault() != f {
		t.Fatal("Fault() does not return the poisoning fault")
	}

	// Poisoned: only Close remains; further runs are refused, typed.
	err = e.RunCtx(context.Background(), st)
	if !errors.Is(err, resilience.ErrQuarantined) {
		t.Fatalf("poisoned engine returned %v, want ErrQuarantined", err)
	}
}

// TestRunCtxStall: a level wedged past the level budget is a stall
// fault witnessed by its level instead of a hang, and poisons the
// engine.
func TestRunCtxStall(t *testing.T) {
	plan, st, _ := guardFixture(t, 13)
	e := NewEngine(plan)
	e.SetGuard(20 * time.Millisecond)
	e.SetInjector(chaos.Delay(1, 0, 300*time.Millisecond))

	err := e.RunCtx(context.Background(), st)
	f, ok := resilience.AsFault(err)
	if !ok {
		t.Fatalf("RunCtx returned %v, want *EngineFault", err)
	}
	if f.Kind != resilience.FaultDeadline || !errors.Is(f, resilience.ErrLevelStall) {
		t.Fatalf("fault = %v, want a level stall", f)
	}
	if f.Level != 0 {
		t.Fatalf("stall witnessed at level %d, want level 0", f.Level)
	}
	if !errors.Is(e.RunCtx(context.Background(), st), resilience.ErrQuarantined) {
		t.Fatal("engine not quarantined after a stall")
	}
}

// TestRunCtxCancel: a canceled context is refused up front, and a
// context ending between levels stops the run at the next level.
func TestRunCtxCancel(t *testing.T) {
	plan, st, _ := guardFixture(t, 15)
	e := NewEngine(plan)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunCtx(ctx, st)
	f, ok := resilience.AsFault(err)
	if !ok || f.Kind != resilience.FaultCanceled {
		t.Fatalf("pre-canceled RunCtx returned %v, want FaultCanceled", err)
	}
	// The precheck refused the run: not poisoned, still usable.
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("engine unusable after refused run: %v", err)
	}

	// A context canceled at level 1 stops the run before level 2.
	if plan.Stats().Levels < 3 {
		t.Fatalf("degenerate plan: %d levels, want at least 3", plan.Stats().Levels)
	}
	ctx, cancel = context.WithCancel(context.Background())
	e.SetInjector(cancelAtLevel{level: 1, cancel: cancel})
	f, ok = resilience.AsFault(e.RunCtx(ctx, st))
	if !ok || f.Kind != resilience.FaultCanceled || f.Level != 2 {
		t.Fatalf("run canceled at level 1 returned %v, want FaultCanceled at level 2", f)
	}
}

// cancelAtLevel is an injector that cancels its context when the level
// loop reaches level.
type cancelAtLevel struct {
	level  int
	cancel context.CancelFunc
}

func (c cancelAtLevel) BeginRun() {}

func (c cancelAtLevel) AtLevel(level int, _ []uint64) {
	if level == c.level {
		c.cancel()
	}
}

// TestRunCtxCancelMidStream: cancellation between runs (the chaos
// cancel injector fires at BeginRun of the trigger run) aborts that run
// with a typed fault.
func TestRunCtxCancelMidStream(t *testing.T) {
	plan, st, _ := guardFixture(t, 16)
	e := NewEngine(plan)
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

// TestRunCtxSoloGuard: the guarded path isolates panics (poisoning) but
// survives cancellation (nothing was damaged).
func TestRunCtxSoloGuard(t *testing.T) {
	plan, st, want := guardFixture(t, 17)
	e := NewEngine(plan)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.RunCtx(ctx, st)
	if f, ok := resilience.AsFault(err); !ok || f.Kind != resilience.FaultCanceled {
		t.Fatalf("canceled run returned %v, want FaultCanceled", err)
	}
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
	for i, w := range want {
		if st[i] != w {
			t.Fatalf("slot %d = %#x, sequential %#x", i, st[i], w)
		}
	}

	e.SetInjector(chaos.PanicAt(1, 0))
	err = e.RunCtx(context.Background(), st)
	if f, ok := resilience.AsFault(err); !ok || f.Kind != resilience.FaultPanic {
		t.Fatalf("panic returned %v, want FaultPanic", err)
	}
	if !errors.Is(e.RunCtx(context.Background(), st), resilience.ErrQuarantined) {
		t.Fatal("engine not quarantined after a panic")
	}
}

// TestRunCtxCorruptionIsSilentHere: state corruption does not fault at
// the engine layer — detecting it is the facade cross-check's job — but
// it must actually corrupt, or the chaos scenario tests prove nothing.
func TestRunCtxCorruptionIsSilentHere(t *testing.T) {
	plan, st, want := guardFixture(t, 18)
	e := NewEngine(plan)
	// Flip a persistent word between the last two levels so no gate
	// recomputes it (slot 0 is written only at its own level).
	e.SetInjector(chaos.CorruptBits(1, e.Levels()-1, 0, 1<<63))

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

// TestRunCtxCallerOnly: a gated engine is supervised like an ungated
// one. It is bit-identical to sequential execution, guarded or not,
// alternating with ungated runs; a context ending between levels returns
// a fault without poisoning; a panic is recorded with its level and
// poisons the engine; and an overrun of the budget is a stall fault at
// the wedged level.
func TestRunCtxCallerOnly(t *testing.T) {
	plan, st, want := guardFixture(t, 19)
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
				t.Fatalf("run %d (gated %v): slot %d = %#x, sequential %#x", run, run%2 == 0, i, st[i], w)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	e.SetInjector(chaos.CancelAfter(cancel, 1))
	gateAll(e, true)
	if f, ok := resilience.AsFault(e.RunCtx(ctx, st)); !ok || f.Kind != resilience.FaultCanceled {
		t.Fatalf("canceled gated run returned %v, want FaultCanceled", f)
	}
	e.SetInjector(nil)
	if err := e.RunCtx(context.Background(), st); err != nil {
		t.Fatalf("gated engine unusable after cancellation: %v", err)
	}

	e.SetInjector(chaos.PanicAt(1, 1))
	f, ok := resilience.AsFault(e.RunCtx(context.Background(), st))
	if !ok || f.Kind != resilience.FaultPanic || f.Level != 1 {
		t.Fatalf("gated panic = %v, want a panic at level 1", f)
	}
	if e.Fault() != f {
		t.Fatalf("Fault() = %v after a gated panic", e.Fault())
	}
	if !errors.Is(e.RunCtx(context.Background(), st), resilience.ErrQuarantined) {
		t.Fatal("gated engine not quarantined after a panic")
	}

	e = NewEngine(plan)
	gateAll(e, true)
	e.SetGuard(20 * time.Millisecond)
	e.SetInjector(chaos.Delay(1, 1, 100*time.Millisecond))
	f, ok = resilience.AsFault(e.RunCtx(context.Background(), st))
	if !ok || !errors.Is(f, resilience.ErrLevelStall) || f.Level != 1 {
		t.Fatalf("gated stall = %v, want a level stall at level 1", f)
	}
}

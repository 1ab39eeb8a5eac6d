package chaos

import (
	"context"
	"testing"
	"time"

	"udsim/internal/resilience"
)

func TestPanicAtFiresOnceAtCoordinate(t *testing.T) {
	inj := PanicAt(2, 1)
	st := make([]uint64, 4)

	inj.BeginRun() // run 1: wrong run, nothing fires
	inj.AtLevel(1, st)
	if inj.Fired() {
		t.Fatal("fired on the wrong run")
	}

	inj.BeginRun() // run 2
	inj.AtLevel(0, st)
	inj.AtLevel(2, st)
	if inj.Fired() {
		t.Fatal("fired at the wrong coordinate")
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("did not panic at the trigger coordinate")
			}
			f, ok := r.(*resilience.EngineFault)
			if !ok {
				t.Fatalf("panicked with %T, want *EngineFault", r)
			}
			if f.Kind != resilience.FaultPanic || f.Level != 1 {
				t.Fatalf("fault = %v, want panic at level 1", f)
			}
		}()
		inj.AtLevel(1, st)
	}()
	if !inj.Fired() {
		t.Fatal("Fired() false after firing")
	}

	// Single shot: the same coordinate on a later run stays quiet — a
	// sequential replay of the faulted batch must not re-inject.
	inj.BeginRun()
	inj.AtLevel(1, st) // must not panic
}

func TestCorruptWordAndMask(t *testing.T) {
	st := make([]uint64, 4)
	inj := CorruptBits(1, 0, 2, 0) // mask 0 flips the low bit
	inj.BeginRun()
	inj.AtLevel(0, st)
	if st[2] != 1 {
		t.Fatalf("st[2] = %#x, want low bit flipped", st[2])
	}

	st2 := make([]uint64, 4)
	bits := CorruptBits(1, 0, 1, 1<<17)
	bits.BeginRun()
	bits.AtLevel(0, st2)
	if st2[1] != 1<<17 {
		t.Fatalf("st2[1] = %#x, want bit 17 flipped", st2[1])
	}

	// Out-of-range slots must be ignored, not panic.
	oob := CorruptBits(1, 0, 99, 0)
	oob.BeginRun()
	oob.AtLevel(0, st)
	if !oob.Fired() || st[2] != 1 {
		t.Fatalf("out-of-range corruption: fired=%v st=%v", oob.Fired(), st)
	}
}

func TestDelaySleeps(t *testing.T) {
	inj := Delay(1, 0, 20*time.Millisecond)
	inj.BeginRun()
	t0 := time.Now()
	inj.AtLevel(0, nil)
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("slept %v, want >= 20ms", d)
	}
}

func TestCancelAfter(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inj := CancelAfter(cancel, 3)
	inj.BeginRun()
	inj.BeginRun()
	if ctx.Err() != nil {
		t.Fatal("canceled before the trigger run")
	}
	inj.BeginRun()
	if ctx.Err() == nil {
		t.Fatal("trigger run did not cancel")
	}
	inj.AtLevel(0, nil) // cancel event never touches state
}

func TestReset(t *testing.T) {
	st := make([]uint64, 1)
	inj := CorruptBits(1, 0, 0, 0)
	inj.BeginRun()
	inj.AtLevel(0, st)
	if !inj.Fired() || inj.Runs() != 1 {
		t.Fatalf("fired=%v runs=%d after firing", inj.Fired(), inj.Runs())
	}
	inj.Reset()
	if inj.Fired() || inj.Runs() != 0 {
		t.Fatal("Reset did not rearm")
	}
	inj.BeginRun()
	inj.AtLevel(0, st)
	if st[0] != 0 { // flipped twice: back to zero
		t.Fatalf("st[0] = %#x after two single-shot firings", st[0])
	}
}

func TestEventString(t *testing.T) {
	want := map[Event]string{
		EventPanic: "panic", EventCorrupt: "corrupt",
		EventDelay: "delay", EventCancel: "cancel",
	}
	for e, s := range want {
		if e.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), s)
		}
	}
}

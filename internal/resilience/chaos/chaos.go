// Package chaos provides deterministic, seeded fault injectors for the
// guarded execution paths: panics at a chosen level, state-word
// corruption, artificial level delays, and mid-stream context
// cancellation. Injectors implement resilience.Injector and are
// consulted only on the guarded paths (RunCtx/ApplyVectorCtx), so
// unguarded hot loops never pay for them.
//
// Determinism is the point: every injector fires at an exact (run,
// level) coordinate, counted by BeginRun, and fires exactly once unless
// Reset. The chaos test suite replays the same failure on every circuit
// and every word width.
package chaos

import (
	"context"
	"sync/atomic"
	"time"

	"udsim/internal/resilience"
)

// Event identifies which injection an injector performs.
type Event int

const (
	// EventPanic panics in the level loop that reaches the trigger.
	EventPanic Event = iota
	// EventCorrupt flips the low bit of a chosen state word.
	EventCorrupt
	// EventDelay sleeps in the level loop that reaches the trigger,
	// simulating a wedged level.
	EventDelay
	// EventCancel cancels a context when the trigger run begins.
	EventCancel
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EventPanic:
		return "panic"
	case EventCorrupt:
		return "corrupt"
	case EventDelay:
		return "delay"
	case EventCancel:
		return "cancel"
	}
	return "event(?)"
}

// Injector fires one fault at an exact coordinate: the trigger matches
// when the current run (1-based, counted by BeginRun) equals Run and the
// engine consults it at Level. Each injector fires at most once until
// Reset, so a sequential replay of the faulted batch does not re-inject.
// Level 0 triggers on sequential dispatch too (which always reports
// level 0).
type Injector struct {
	// Event selects the fault to inject.
	Event Event
	// Run is the 1-based simulation-program run the trigger arms on.
	Run int
	// Level is the level the armed trigger fires at.
	Level int

	// Slot is the state word EventCorrupt flips; Mask selects the bits
	// (zero means the low bit).
	Slot int
	Mask uint64
	// Sleep is EventDelay's stall duration.
	Sleep time.Duration
	// Cancel is invoked by EventCancel when run Run begins; wire it to a
	// context.CancelFunc.
	Cancel context.CancelFunc

	run   atomic.Int64
	fired atomic.Bool
}

var _ resilience.Injector = (*Injector)(nil)

// BeginRun counts one simulation-program execution and fires EventCancel
// when the trigger run begins.
func (i *Injector) BeginRun() {
	n := i.run.Add(1)
	if i.Event == EventCancel && int(n) == i.Run && i.Cancel != nil && i.fired.CompareAndSwap(false, true) {
		i.Cancel()
	}
}

// AtLevel fires the armed event at its level. Safe for concurrent use.
func (i *Injector) AtLevel(level int, st []uint64) {
	if i.Event == EventCancel {
		return
	}
	if int(i.run.Load()) != i.Run || level != i.Level {
		return
	}
	if !i.fired.CompareAndSwap(false, true) {
		return
	}
	switch i.Event {
	case EventPanic:
		// Panic with a pre-located fault so the recover site reports the
		// injection coordinates instead of its own.
		panic(&resilience.EngineFault{
			Kind:   resilience.FaultPanic,
			Engine: "chaos",
			Level:  level, Instr: -1,
			Value: "injected level panic",
		})
	case EventCorrupt:
		if i.Slot >= 0 && i.Slot < len(st) {
			m := i.Mask
			if m == 0 {
				m = 1
			}
			st[i.Slot] ^= m
		}
	case EventDelay:
		time.Sleep(i.Sleep)
	}
}

// Fired reports whether the injector has fired.
func (i *Injector) Fired() bool { return i.fired.Load() }

// Runs returns the number of runs counted so far.
func (i *Injector) Runs() int { return int(i.run.Load()) }

// Reset rearms the injector and restarts the run count.
func (i *Injector) Reset() {
	i.run.Store(0)
	i.fired.Store(false)
}

// PanicAt builds a single-shot panic injector firing on run run
// (1-based) at level.
func PanicAt(run, level int) *Injector {
	return &Injector{Event: EventPanic, Run: run, Level: level}
}

// CorruptBits builds a single-shot corruption injector that flips the
// mask bits (the low bit when mask is 0) of state word slot on run run at
// level — pair it with the simulators' FinalSlot helpers to hit an
// output-visible bit.
func CorruptBits(run, level, slot int, mask uint64) *Injector {
	return &Injector{Event: EventCorrupt, Run: run, Level: level, Slot: slot, Mask: mask}
}

// Delay builds a single-shot stall injector that sleeps d on run run at
// level — long enough a sleep overruns the guard's level budget.
func Delay(run, level int, d time.Duration) *Injector {
	return &Injector{Event: EventDelay, Run: run, Level: level, Sleep: d}
}

// CancelAfter builds an injector that invokes cancel when run run
// begins — mid-stream cancellation without test-side timing games.
func CancelAfter(cancel context.CancelFunc, run int) *Injector {
	return &Injector{Event: EventCancel, Run: run, Cancel: cancel}
}

// Package chaos provides deterministic, seeded fault injectors for the
// guarded execution paths: panics at a chosen level, state-word
// corruption, artificial level delays, and mid-stream context
// cancellation. Injectors implement resilience.Injector and are
// consulted only on the guarded paths (RunCtx/ApplyVectorCtx), so
// unguarded hot loops never pay for them.
//
// Determinism is the point: every injector fires at an exact (run,
// level, shard) coordinate, counted by BeginRun, and fires exactly once
// unless Reset. The chaos test suite replays the same failure on every
// circuit and every word width — a seeded randomized
// injector exists for sweeps, and its choices are a pure function of the
// seed.
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
	// EventPanic panics in the worker that reaches the trigger.
	EventPanic Event = iota
	// EventCorrupt flips the low bit of a chosen state word.
	EventCorrupt
	// EventDelay sleeps in the worker that reaches the trigger,
	// simulating a wedged shard.
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
// when the current run (1-based, counted by BeginRun) equals Run and a
// worker consults it at (Level, Shard). Each injector fires at most once
// until Reset, so a sequential replay of the faulted batch does not
// re-inject. The zero values of Level and Shard trigger on sequential
// dispatch too (which always reports level 0, shard 0).
type Injector struct {
	// Event selects the fault to inject.
	Event Event
	// Run is the 1-based simulation-program run the trigger arms on.
	Run int
	// Level and Shard are the bulk-synchronous coordinates the armed
	// trigger fires at.
	Level, Shard int

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

// AtLevel fires the armed event at its (level, shard) coordinate. Safe
// for concurrent use: shard workers consult it in parallel.
func (i *Injector) AtLevel(level, shard int, st []uint64) {
	if i.Event == EventCancel {
		return
	}
	if int(i.run.Load()) != i.Run || level != i.Level || shard != i.Shard {
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
			Level:  level, Shard: shard, Instr: -1,
			Value: "injected worker panic",
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

// PanicAt builds a single-shot worker-panic injector firing on run run
// (1-based) at (level, shard).
func PanicAt(run, level, shard int) *Injector {
	return &Injector{Event: EventPanic, Run: run, Level: level, Shard: shard}
}

// CorruptWord builds a single-shot corruption injector that flips the
// low bit of state word slot on run run at (level, shard).
func CorruptWord(run, level, shard, slot int) *Injector {
	return &Injector{Event: EventCorrupt, Run: run, Level: level, Shard: shard, Slot: slot}
}

// CorruptBits is CorruptWord with an explicit bit mask — pair it with
// the simulators' FinalSlot helpers to hit an output-visible bit.
func CorruptBits(run, level, shard, slot int, mask uint64) *Injector {
	return &Injector{Event: EventCorrupt, Run: run, Level: level, Shard: shard, Slot: slot, Mask: mask}
}

// Delay builds a single-shot stall injector that sleeps d on run run at
// (level, shard) — long enough a sleep overruns the guard's level budget.
func Delay(run, level, shard int, d time.Duration) *Injector {
	return &Injector{Event: EventDelay, Run: run, Level: level, Shard: shard, Sleep: d}
}

// CancelAfter builds an injector that invokes cancel when run run
// begins — mid-stream cancellation without test-side timing games.
func CancelAfter(cancel context.CancelFunc, run int) *Injector {
	return &Injector{Event: EventCancel, Run: run, Cancel: cancel}
}

// Seeded derives a deterministic injector of the given event for a
// schedule with levels levels and shards shards, spreading the trigger
// coordinate with a splitmix64 step of the seed. Corruption targets
// slot range [0, slots); runs bounds the 1-based trigger run.
func Seeded(seed uint64, event Event, runs, levels, shards, slots int) *Injector {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	pick := func(n int) int {
		if n < 1 {
			n = 1
		}
		return int(next() % uint64(n))
	}
	return &Injector{
		Event: event,
		Run:   1 + pick(runs),
		Level: pick(levels),
		Shard: pick(shards),
		Slot:  pick(slots),
		Sleep: time.Duration(1+pick(20)) * time.Millisecond,
	}
}

// Package resilience is the supervision layer around the compiled
// simulation engines: typed engine faults, guard policies, and the
// fault-injection seam the chaos harness drives.
//
// The paper's compiled techniques produce straight-line programs with no
// branches — and therefore no error paths. That is exactly right for the
// hot loop and exactly wrong for a runtime meant to serve heavy traffic:
// a panic must not kill the process, a wedged level must not hang the
// caller forever, and silent state corruption must be detectable. This
// package supplies the vocabulary (EngineFault, with level and
// instruction witness coordinates) and the knobs (Policy) that the shard
// engine, the compiled simulators and the facade's Guarded engine share.
// It imports nothing but the standard library, so every engine package
// can depend on it.
//
// The degradation ladder implemented by the guarded facade engine:
//
//  1. A fault on the configured strategy's path (panic, level stall,
//     corruption caught by cross-check) quarantines the strategy: the
//     engine reverts to sequential execution.
//  2. The faulted vector batch is rolled back to its checkpoint and
//     replayed on the sequential engine — outputs stay bit-identical to
//     an all-sequential run.
//  3. Transient faults on the sequential path (panics) are retried with
//     capped exponential backoff up to Policy.MaxRetries.
//  4. Persistent faults and caller cancellations surface to the caller
//     as *EngineFault after the state is rolled back to the checkpoint.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// FaultKind classifies an engine fault.
type FaultKind int

const (
	// FaultPanic is a recovered panic in the level loop or the sequential
	// dispatch loop.
	FaultPanic FaultKind = iota
	// FaultDeadline is a deadline violation: a guarded level loop ran a
	// level past the per-level budget, or the caller's context deadline
	// expired.
	FaultDeadline
	// FaultCanceled is a caller cancellation through context.Context.
	FaultCanceled
	// FaultCorruption is silent state corruption caught by the guarded
	// engine's output cross-check against the zero-delay oracle.
	FaultCorruption
	// FaultSubprocess is a native-backend child failure: the supervised
	// subprocess crashed, exited, failed to build, or could not be
	// spawned. ExitStatus and Stderr carry the witness.
	FaultSubprocess
	// FaultProtocol is a native-backend framing violation: CRC mismatch,
	// truncated frame, sequence desync, oversized payload, or a handshake
	// that does not match the compiled circuit. Frame carries the witness.
	FaultProtocol

	// NumFaultKinds sizes per-kind counter arrays.
	NumFaultKinds int = iota
)

// String names the fault kind (the obs counter label).
func (k FaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultDeadline:
		return "deadline"
	case FaultCanceled:
		return "canceled"
	case FaultCorruption:
		return "corruption"
	case FaultSubprocess:
		return "subprocess"
	case FaultProtocol:
		return "protocol"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Sentinel causes wrapped by EngineFault.
var (
	// ErrLevelStall marks a level of a guarded level loop (an
	// activity-gated vector run on the caller) that the run timed past
	// the per-level budget.
	ErrLevelStall = errors.New("resilience: level ran past its budget")
	// ErrQuarantined marks an attempt to run an engine that already
	// faulted.
	ErrQuarantined = errors.New("resilience: engine is quarantined after a fault")
	// ErrCrossCheck marks a guarded-engine output mismatch against the
	// zero-delay reference oracle.
	ErrCrossCheck = errors.New("resilience: output cross-check mismatch")
	// ErrChildBuild marks a native-backend child that failed to compile
	// or link; the fault is permanent (re-running go build on identical
	// sources cannot succeed), so it is never retried.
	ErrChildBuild = errors.New("resilience: native child failed to build")
	// ErrChildStall marks a native-backend child that accepted the
	// handshake (or a batch) and then failed to answer within the
	// per-batch deadline.
	ErrChildStall = errors.New("resilience: native child stalled past batch deadline")
)

// EngineFault is a typed, located engine failure: its witness
// coordinates are the level of the level loop and an instruction (or
// state slot). Unknown coordinates are -1.
type EngineFault struct {
	// Kind classifies the fault.
	Kind FaultKind
	// Engine names the faulting engine ("parallel", "pcset", "shard",
	// "async").
	Engine string
	// Level and Instr locate the fault in the level loop (-1 when
	// unknown; sequential execution is level 0).
	Level, Instr int
	// Value is the recovered panic value for FaultPanic.
	Value any
	// Stack is the panicking goroutine's stack for FaultPanic.
	Stack []byte
	// ExitStatus is the child's exit code for FaultSubprocess (-1 when
	// the child was signaled or never started; 0 when not applicable).
	ExitStatus int
	// Stderr is the tail of the child's stderr stream for
	// FaultSubprocess/FaultProtocol (capped by the supervisor).
	Stderr string
	// Frame is the protocol frame coordinate (batch sequence number) for
	// FaultSubprocess/FaultProtocol; -1 when unknown.
	Frame int64
	// Err is the wrapped cause (context errors, sentinel causes).
	Err error
}

// Error renders the fault as a one-line witness:
//
//	resilience: panic in parallel (level 3): runtime error: ...
func (f *EngineFault) Error() string {
	loc := ""
	switch {
	case f.Kind == FaultSubprocess || f.Kind == FaultProtocol:
		if f.Frame >= 0 {
			loc = fmt.Sprintf(" (frame %d", f.Frame)
			if f.Kind == FaultSubprocess {
				loc += fmt.Sprintf(" exit %d", f.ExitStatus)
			}
			loc += ")"
		}
	case f.Level >= 0:
		loc = fmt.Sprintf(" (level %d", f.Level)
		if f.Instr >= 0 {
			loc += fmt.Sprintf(" instr %d", f.Instr)
		}
		loc += ")"
	}
	cause := ""
	switch {
	case f.Kind == FaultPanic && f.Value != nil:
		cause = fmt.Sprintf(": %v", f.Value)
	case f.Err != nil:
		cause = fmt.Sprintf(": %v", f.Err)
	}
	return fmt.Sprintf("resilience: %v in %s%s%s", f.Kind, f.Engine, loc, cause)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (f *EngineFault) Unwrap() error { return f.Err }

// Transient reports whether retrying the same work can plausibly
// succeed: panics and stalls may be environmental; corruption needs a
// different execution path, cancellation must be honored, and a
// quarantined engine stays quarantined — none of those are retried.
// Native-backend child crashes, wedges and framing violations are
// transient (a respawned child gets a fresh address space), but a build
// failure is not — identical sources cannot compile differently.
func (f *EngineFault) Transient() bool {
	if errors.Is(f.Err, ErrQuarantined) || errors.Is(f.Err, ErrChildBuild) {
		return false
	}
	switch f.Kind {
	case FaultSubprocess, FaultProtocol:
		return true
	}
	return f.Kind == FaultPanic ||
		(f.Kind == FaultDeadline && (errors.Is(f.Err, ErrLevelStall) || errors.Is(f.Err, ErrChildStall)))
}

// AsFault extracts an *EngineFault from an error chain.
func AsFault(err error) (*EngineFault, bool) {
	var f *EngineFault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// FromPanic converts a recovered panic value into a fault. If the panic
// value already is an *EngineFault (a chaos injector panicking with a
// pre-located fault), it is returned as-is so injected coordinates
// survive.
func FromPanic(engine string, level, instr int, v any) *EngineFault {
	if f, ok := v.(*EngineFault); ok {
		return f
	}
	return &EngineFault{
		Kind: FaultPanic, Engine: engine,
		Level: level, Instr: instr,
		Value: v, Stack: debug.Stack(),
	}
}

// FromContext converts a context error into a fault (deadline or
// cancellation).
func FromContext(engine string, err error) *EngineFault {
	k := FaultCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		k = FaultDeadline
	}
	return &EngineFault{Kind: k, Engine: engine, Level: -1, Instr: -1, Err: err}
}

// Stall builds the fault of a guarded level loop whose level ran past
// the per-level budget.
func Stall(engine string, level int) *EngineFault {
	return &EngineFault{Kind: FaultDeadline, Engine: engine, Level: level, Instr: -1, Err: ErrLevelStall}
}

// Quarantined builds the fault returned when a faulted engine is run
// again.
func Quarantined(engine string) *EngineFault {
	return &EngineFault{Kind: FaultPanic, Engine: engine, Level: -1, Instr: -1, Err: ErrQuarantined}
}

// Corruption builds the cross-check-mismatch fault; slot is the state
// index (or net id) that diverged from the oracle.
func Corruption(engine string, slot int) *EngineFault {
	return &EngineFault{
		Kind: FaultCorruption, Engine: engine,
		Level: -1, Instr: slot, Err: ErrCrossCheck,
	}
}

// Subprocess builds the native-backend child-death fault: the child
// crashed, exited or could not be spawned while frame (the batch
// sequence number, -1 when outside a batch) was in flight. exit is the
// child's exit status (-1 when signaled or never started) and stderr is
// the supervisor's capped tail of the child's stderr stream.
func Subprocess(engine string, frame int64, exit int, stderr string, err error) *EngineFault {
	return &EngineFault{
		Kind: FaultSubprocess, Engine: engine,
		Level: -1, Instr: -1,
		Frame: frame, ExitStatus: exit, Stderr: stderr, Err: err,
	}
}

// Protocol builds the native-backend framing-violation fault at the
// given frame coordinate (batch sequence number, -1 when the violation
// is in the handshake).
func Protocol(engine string, frame int64, stderr string, err error) *EngineFault {
	return &EngineFault{
		Kind: FaultProtocol, Engine: engine,
		Level: -1, Instr: -1,
		Frame: frame, Stderr: stderr, Err: err,
	}
}

// Policy is the guard configuration of the facade's Guarded engine and
// the shard engine's guarded run path. The zero value guards panics and
// cancellation but enforces no budget, no retries and no cross-checks;
// DefaultPolicy enables the full ladder with conservative budgets.
type Policy struct {
	// LevelBudget is the per-level stall budget of the level loop that
	// runs activity-gated vectors on the caller: the run times each
	// level and stops after one that overran, with a FaultDeadline
	// wrapping ErrLevelStall. Work outside those levels has no budget
	// of its own: the sequential strategy and gated vectors on the
	// sequential form are not budgeted at all. 0 disables it.
	LevelBudget time.Duration
	// MaxRetries bounds sequential-replay retries of a transient fault.
	MaxRetries int
	// RetryBackoff is the pause before retry attempt 0; attempt n waits
	// RetryBackoff×2ⁿ, capped at 16×RetryBackoff, so the schedule is
	// b, 2b, 4b, 8b, 16b, 16b, ... (see Policy.Backoff).
	RetryBackoff time.Duration
	// CrossCheckEvery samples every Nth vector's primary outputs against
	// the zero-delay reference oracle, converting silent corruption into
	// a FaultCorruption. 0 disables cross-checking.
	CrossCheckEvery int
}

// DefaultPolicy returns the guard configuration used when a caller asks
// for guarding without tuning knobs: a generous level budget, two
// retries with millisecond backoff, and no output sampling.
func DefaultPolicy() Policy {
	return Policy{
		LevelBudget:  time.Second,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}
}

// Backoff returns the pause before retry attempt (0-based): attempt n
// waits RetryBackoff×2ⁿ, capped at 16×RetryBackoff — the schedule is
// b, 2b, 4b, 8b, 16b and 16b forever after. A non-positive RetryBackoff
// disables the pause entirely.
func (p Policy) Backoff(attempt int) time.Duration {
	if p.RetryBackoff <= 0 {
		return 0
	}
	d := p.RetryBackoff
	for i := 0; i < attempt && d < 16*p.RetryBackoff; i++ {
		d *= 2
	}
	if max := 16 * p.RetryBackoff; d > max {
		d = max
	}
	return d
}

// Injector is the fault-injection seam consulted by the guarded
// execution paths (and only by them — the unguarded hot paths never see
// it). Implementations may panic (panic injection), sleep (stall
// injection) or mutate the state array (corruption injection); package
// chaos provides deterministic, seeded ones.
type Injector interface {
	// BeginRun is called once per simulation-program execution (one per
	// vector), before any level runs.
	BeginRun()
	// AtLevel is called before level runs: by the level loop once per
	// level, and by sequential dispatch once per run with level 0.
	AtLevel(level int, st []uint64)
}

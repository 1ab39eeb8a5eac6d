package shard

import (
	"context"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"udsim/internal/obs"
	"udsim/internal/program"
	"udsim/internal/resilience"
)

// Engine runs a plan's levels in order on the caller's goroutine,
// executing each level's active ranges (SetGate). Run is bit-identical
// to executing the original program sequentially.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	plan *Plan
	obs  *obs.Observer // nil = observability disabled

	// Activity gates (see SetGate). Level l executes
	// code[runs[2i]:runs[2i+1]] for i in [runOff[l], runOff[l+1]);
	// ungated, runs and runOff are the whole-level ranges levelRuns and
	// levelOff.
	gateLevel           []bool // per level: false = skip the whole level; nil = ungated
	runs, runOff        []int32
	levelRuns, levelOff []int32

	// Guarded-run state (see guard.go).
	poisoned bool
	budget   time.Duration // per-level stall budget (0 = off)
	inj      resilience.Injector
	fault    *resilience.EngineFault
}

// NewEngine builds the runtime for a plan.
func NewEngine(plan *Plan) *Engine {
	e := &Engine{plan: plan}
	nl := len(plan.levels)
	e.levelRuns = make([]int32, 2*nl)
	e.levelOff = make([]int32, nl+1)
	for l, code := range plan.levels {
		e.levelRuns[2*l+1] = int32(len(code))
		e.levelOff[l+1] = int32(l + 1)
	}
	e.runs, e.runOff = e.levelRuns, e.levelOff
	return e
}

// Plan returns the static schedule the engine executes.
func (e *Engine) Plan() *Plan { return e.plan }

// SetObserver attaches (or with nil detaches) an observer that receives
// per-level execution time and instruction counts. The observer must
// already be Attach-ed with this plan's Levels() shape. Must not be
// called concurrently with Run.
func (e *Engine) SetObserver(o *obs.Observer) { e.obs = o }

// SetGate installs activity gates for subsequent runs, or with a nil
// level removes them. level[l] == false skips level l outright. A
// running level l executes the half-open ranges code[runs[2i]:runs[2i+1]],
// i in [off[l], off[l+1]), of its slice, so off has Levels()+1 entries;
// runs == nil runs whole levels. SetGate must not be called concurrently
// with Run or RunCtx; the caller may rewrite the same backing arrays
// between runs without allocating.
//
// Correctness is the caller's contract: every instruction outside the
// ranges must provably leave its outputs unchanged from the previous run
// (see the activity-gated strategy in internal/parsim, which derives the
// gates from primary-input cones and proves the skip sound).
func (e *Engine) SetGate(level []bool, runs, off []int32) {
	if runs == nil {
		runs, off = e.levelRuns, e.levelOff
	}
	e.gateLevel, e.runs, e.runOff = level, runs, off
}

// Levels returns the number of levels in the plan — the first dimension
// of the observer's cell grid.
func (e *Engine) Levels() int { return len(e.plan.levels) }

// Run executes the plan over st, which must hold the program's state.
func (e *Engine) Run(st []uint64) { _ = e.run(nil, st) }

// run is the level loop behind Run and RunCtx: it executes the active
// ranges of each level in order. With an observer attached it brackets
// each level with monotonic-clock reads — two time.Now() calls per
// level, no allocation.
//
// A guarded run (non-nil ctx) does more per level, never per
// instruction: it checks ctx, calls the injector, recovers a panic into
// the engine's fault, and times its levels against the SetGuard budget.
// It returns early with the context fault when ctx ends between levels,
// and with the poisoning fault after a panic or an overrun.
func (e *Engine) run(ctx context.Context, st []uint64) (err error) {
	l := 0 // the level being run: a fault's witness
	if ctx != nil {
		defer func() {
			if r := recover(); r != nil {
				err = e.poison(resilience.FromPanic(engineName, l, -1, r))
			}
		}()
	}
	wb, o, inj := e.plan.wordBits, e.obs, e.inj
	gl, runs, off, levels := e.gateLevel, e.runs, e.runOff, e.plan.levels
	var budget time.Duration
	var mark time.Time
	if ctx != nil && e.budget > 0 {
		budget, mark = e.budget, time.Now()
	}
	for ; l < len(levels); l++ {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				f := resilience.FromContext(engineName, cerr)
				f.Level = l
				return f
			}
			// The injector fires before the gate check on purpose: chaos
			// tests must be able to panic inside the bookkeeping of a level
			// the gates are about to skip.
			if inj != nil {
				inj.AtLevel(l, st)
				if budget > 0 {
					if f := e.overrun(l, budget, &mark); f != nil {
						return f
					}
				}
			}
		}
		if gl != nil && !gl[l] {
			continue
		}
		var t0 time.Time
		if o != nil {
			t0 = time.Now()
		}
		n := program.ExecRanges(levels[l], runs[2*off[l]:2*off[l+1]], st, wb)
		if o != nil && off[l+1] > off[l] {
			o.AddLevel(l, time.Since(t0), n)
		}
		if budget > 0 {
			if f := e.overrun(l, budget, &mark); f != nil {
				return f
			}
		}
	}
	return nil
}

// Pool is a minimal persistent worker pool for vector-batch parallelism:
// Do runs f(worker) once per worker concurrently, with the caller
// executing worker 0. Callers partition the vector stream themselves.
type Pool struct {
	n     int
	start []chan func(int)
	fin   chan struct{}
	done  sync.WaitGroup
	fault atomic.Pointer[poolPanic]
}

// poolPanic carries the first panic recovered in any pool worker so Do
// can re-raise it in the caller after every worker has parked.
type poolPanic struct {
	val   any
	stack []byte
}

// NewPool spawns n-1 helper goroutines (the Do caller is worker 0).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{n: n}
	if n > 1 {
		p.start = make([]chan func(int), n-1)
		p.fin = make(chan struct{}, n-1)
		for w := 1; w < n; w++ {
			ch := make(chan func(int), 1)
			p.start[w-1] = ch
			p.done.Add(1)
			go func(w int, ch chan func(int)) {
				defer p.done.Done()
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
					pprof.Labels("udsim", "batch-worker", "block", strconv.Itoa(w))))
				for f := range ch {
					p.call(w, f)
					p.fin <- struct{}{}
				}
			}(w, ch)
		}
	}
	return p
}

// Workers returns the pool's party count.
func (p *Pool) Workers() int { return p.n }

// call runs f(w) under a recover so a panicking task cannot kill a pool
// goroutine or strand Do's completion drain; the first panic is kept and
// re-raised by Do.
func (p *Pool) call(w int, f func(int)) {
	defer func() {
		if r := recover(); r != nil {
			p.fault.CompareAndSwap(nil, &poolPanic{val: r, stack: debug.Stack()})
		}
	}()
	f(w)
}

// Do runs f(0) .. f(n-1) concurrently and returns when all have finished.
// A panic in any worker is caught, the remaining workers are allowed to
// finish (so no goroutine is left mid-task), and the first panic value
// is re-raised in the caller — where a guarded engine's recover can turn
// it into a typed fault.
func (p *Pool) Do(f func(worker int)) {
	for _, ch := range p.start {
		ch <- f
	}
	p.call(0, f)
	for range p.start {
		<-p.fin
	}
	if pp := p.fault.Load(); pp != nil {
		p.fault.Store(nil)
		panic(pp.val)
	}
}

// Close releases the helper goroutines.
func (p *Pool) Close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.done.Wait()
	p.start = nil
}

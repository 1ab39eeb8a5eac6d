package shard

import (
	"context"
	"runtime"
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

// barrier is a reusable generation barrier for a fixed party count: an
// atomic arrival countdown and a generation counter. Waiters yield the
// processor with runtime.Gosched until the generation moves, so a
// crossing never parks (parking allocates a runtime waiter) and the
// barrier still makes progress with GOMAXPROCS=1 or more parties than
// cores.
type barrier struct {
	parties int32
	arrived atomic.Int32
	gen     atomic.Uint32
	poison  atomic.Bool
}

func newBarrier(parties int) *barrier { return &barrier{parties: int32(parties)} }

// await blocks until all parties have arrived at the barrier's current
// generation, reporting true. The last arriver resets the countdown and
// advances the generation; the generation advance is the release point
// that orders every party's pre-barrier writes before every party's
// post-barrier reads.
//
// await returns false if the barrier was poisoned (see cancel) before
// the generation advanced: a party died or a watchdog gave up, so the
// crossing can never complete and the waiter must abandon the run. A
// poisoned barrier is unusable.
func (b *barrier) await() bool {
	if b.poison.Load() {
		return false
	}
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.parties {
		b.arrived.Store(0)
		b.gen.Store(gen + 1)
		return true
	}
	for b.gen.Load() == gen {
		if b.poison.Load() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// cancel poisons the barrier, releasing every current and future waiter
// with await() == false.
func (b *barrier) cancel() { b.poison.Store(true) }

// idleWait bounds how long a helper worker polls for the next run before
// it parks on its channel: the runs of a vector stream follow each other
// within it, so a stream's helpers never park, and an idle engine stops
// costing processor time once it has passed.
const idleWait = time.Millisecond

// helper is one helper worker's handoff state. A helper reads only its
// own record and what a run publishes, never a field Close rewrites, so a
// worker abandoned by a faulted run can outlive Close safely.
type helper struct {
	parked atomic.Bool   // parked (or about to): the next publish must wake it
	wake   chan struct{} // buffered; closed by Close
}

// Engine executes a shard plan on a persistent worker pool: one goroutine
// per shard beyond the caller's own, waiting between runs, with one
// barrier crossing per level. Run is bit-identical to executing the
// original program sequentially.
//
// An Engine is not safe for concurrent Run calls; Close releases the
// workers.
type Engine struct {
	plan    *Plan
	bar     *barrier  // nil for a one-worker plan
	helpers []*helper // workers 1..n-1
	seq     atomic.Uint32
	closed  atomic.Bool
	fin     chan struct{} // guarded-run abandon reports, one per abandoning helper
	done    sync.WaitGroup
	st      []uint64
	obs     *obs.Observer // nil = observability disabled

	// Activity gates (see SetGate), published to the helpers with st.
	// Cell c = level*workers+shard executes code[runs[2i]:runs[2i+1]] for
	// i in [runOff[c], runOff[c+1]); ungated, runs and runOff are the
	// whole-cell ranges cellRuns and cellOff.
	gateLevel         []bool // per level: false = skip the whole level, barrier included
	runs, runOff      []int32
	cellRuns, cellOff []int32

	// Guarded-run state (see guard.go). guarded is published with st.
	guarded     bool
	poisoned    bool
	leaked      bool
	streamArmed bool          // watchdog armed once for a whole stream (ArmStream)
	budget      time.Duration // per-level watchdog stall budget (0 = off)
	grace       time.Duration // faulted-run drain bound (0 = 1s)
	inj         resilience.Injector
	fault       atomic.Pointer[resilience.EngineFault]
	wd          *resilience.Watchdog
	ctx         context.Context // the active guarded run's context
	runStartGen uint32          // barrier generation at guarded-run start
	onStall     func()          // prebuilt watchdog callbacks (0 allocs/run)
	onCtx       func()
}

// NewEngine builds the persistent runtime for a plan. The helper workers
// (plan.Workers()-1 of them; the Run caller executes shard 0) are spawned
// once and wait for runs between them.
func NewEngine(plan *Plan) *Engine {
	e := &Engine{plan: plan}
	nc := len(plan.levels) * plan.workers
	e.cellRuns = make([]int32, 2*nc)
	e.cellOff = make([]int32, nc+1)
	for l, level := range plan.levels {
		for w, code := range level {
			c := l*plan.workers + w
			e.cellRuns[2*c+1] = int32(len(code))
			e.cellOff[c+1] = int32(c + 1)
		}
	}
	e.runs, e.runOff = e.cellRuns, e.cellOff
	if plan.workers > 1 {
		e.bar = newBarrier(plan.workers)
		e.fin = make(chan struct{}, plan.workers-1)
		for w := 1; w < plan.workers; w++ {
			h := &helper{wake: make(chan struct{}, 1)}
			e.helpers = append(e.helpers, h)
			e.done.Add(1)
			go e.serve(w, h)
		}
	}
	return e
}

// serve is helper worker w's life: wait for each run, execute its share.
func (e *Engine) serve(w int, h *helper) {
	defer e.done.Done()
	// Label the worker so pprof profiles attribute shard time to the right
	// goroutine family and shard index.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("udsim", "shard-worker", "shard", strconv.Itoa(w))))
	var seen uint32
	for e.wait(h, &seen) {
		e.run(w, nil)
	}
}

// wait blocks helper h until the run sequence moves past *seen, and
// reports false once the engine is closed. It polls, yielding the
// processor, for up to idleWait, and only then parks on h.wake; the
// parked flag and the sequence form a Dekker pair with publish, so a
// parked helper is always woken and a polling one never is.
func (e *Engine) wait(h *helper, seen *uint32) bool {
	deadline := time.Now().Add(idleWait)
	for {
		if s := e.seq.Load(); s != *seen {
			*seen = s
			return !e.closed.Load()
		}
		if time.Now().Before(deadline) {
			runtime.Gosched()
			continue
		}
		h.parked.Store(true)
		if e.seq.Load() == *seen {
			<-h.wake
		} else if !h.parked.Swap(false) {
			<-h.wake // publish saw the flag and sent: take its token
		}
		deadline = time.Now().Add(idleWait)
	}
}

// publish hands a run over st to the helpers. The run-sequence advance
// publishes st, the gates and the guarded flag (Go's atomics are
// sequentially consistent), and wakes the helpers that parked.
func (e *Engine) publish(st []uint64, guarded bool) {
	e.st, e.guarded = st, guarded
	if e.helpers == nil {
		return
	}
	e.seq.Add(1)
	for _, h := range e.helpers {
		if h.parked.Swap(false) {
			h.wake <- struct{}{}
		}
	}
}

// Plan returns the static schedule the engine executes.
func (e *Engine) Plan() *Plan { return e.plan }

// SetObserver attaches (or with nil detaches) an observer that receives
// per-level execution time, per-shard instruction counts and barrier
// wait time. The observer must already be Attach-ed with this plan's
// Levels()/Workers() shape. Must not be called concurrently with Run:
// the next run publishes it to the helper workers.
func (e *Engine) SetObserver(o *obs.Observer) { e.obs = o }

// SetGate installs activity gates for subsequent runs. level[l] == false
// skips level l outright on every worker — its barrier included, which
// is safe because all parties read the same slice and elide the same
// crossings; nil runs every level. Cell c = l*Workers()+w of a running
// level executes the half-open ranges code[runs[2i]:runs[2i+1]], i in
// [off[c], off[c+1]), of its slice, so off has Levels()*Workers()+1
// entries; a cell with no range skips its slice but keeps its barrier.
// runs == nil restores whole-cell execution. The slices are published to
// the helper workers with the state array, so SetGate must not be called
// concurrently with Run or RunCtx, and the caller may rewrite the same
// backing arrays between runs without allocating.
//
// Correctness is the caller's contract: every instruction outside the
// ranges must provably leave its outputs unchanged from the previous run
// (see the activity-gated strategy in internal/parsim, which derives the
// gates from primary-input cones and proves the skip sound). With level
// gates installed the watchdog's stall-level attribution becomes
// approximate — skipped levels advance no generation — which affects
// fault metadata only.
func (e *Engine) SetGate(level []bool, runs, off []int32) {
	if runs == nil {
		runs, off = e.cellRuns, e.cellOff
	}
	e.gateLevel, e.runs, e.runOff = level, runs, off
}

// Levels returns the number of bulk-synchronous levels in the plan —
// the first dimension of the observer's cell grid.
func (e *Engine) Levels() int { return len(e.plan.levels) }

// StateSize returns the required state-array length (see Plan.StateSize).
func (e *Engine) StateSize() int { return e.plan.StateSize() }

// Run executes the plan over st, which must have at least StateSize()
// words; the first NumVars words are the program state and the rest are
// the shards' private scratch arenas. The caller's final barrier crossing
// orders every helper's writes before Run returns.
func (e *Engine) Run(st []uint64) {
	e.publish(st, false)
	e.run(0, nil)
}

// run is the level loop, executed by every worker of every run: the Run
// or RunCtx caller as worker 0 and each helper as worker w. It executes
// the worker's active ranges of each level and crosses the barrier after
// each. With an observer attached it brackets each level slice and each
// crossing with monotonic-clock reads — three time.Now() calls per
// (level, worker), no allocation.
//
// The guarded run's extra work is checked per level, never per
// instruction: the injector, a recover that records a panic as the
// engine's fault and poisons the barrier, and — for a one-worker run,
// which has no watchdog — the per-level check of ctx (nil otherwise). A
// run that ends early returns a non-nil error: the context fault of a
// one-worker run, or a quarantine error when the worker gave up at a
// poisoned crossing or panicked. An abandoning guarded helper then
// reports in on fin so the faulted caller's drain knows it stopped; a
// clean run sends nothing, its final crossing is the synchronization.
func (e *Engine) run(w int, ctx context.Context) (err error) {
	guarded := e.guarded
	l := 0
	if guarded {
		defer func() {
			if r := recover(); r != nil {
				e.fault.CompareAndSwap(nil, resilience.FromPanic(engineName, l, w, -1, r))
				if e.bar != nil {
					e.bar.cancel()
				}
				err = resilience.Quarantined(engineName)
			}
			if err != nil && w > 0 {
				e.fin <- struct{}{}
			}
		}()
	}
	st, wb, o, inj := e.st, e.plan.wordBits, e.obs, e.inj
	gl, runs, off := e.gateLevel, e.runs, e.runOff
	nw, levels := e.plan.workers, e.plan.levels
	for ; l < len(levels); l++ {
		if guarded {
			if ctx != nil {
				if cerr := ctx.Err(); cerr != nil {
					f := resilience.FromContext(engineName, cerr)
					f.Level, f.Shard = l, w
					return f
				}
			}
			// The injector fires before the gate check on purpose: chaos
			// tests must be able to panic inside the bookkeeping of a level
			// the gates are about to skip.
			if inj != nil {
				inj.AtLevel(l, w, st)
			}
		}
		if gl != nil && !gl[l] {
			// Every worker reads the same slice, so all parties elide this
			// level's barrier together and stay matched.
			continue
		}
		c := l*nw + w
		var t0 time.Time
		if o != nil {
			t0 = time.Now()
		}
		n := program.ExecRanges(levels[l][w], runs[2*off[c]:2*off[c+1]], st, wb)
		var t1 time.Time
		if o != nil {
			t1 = time.Now()
			if off[c+1] > off[c] {
				o.AddLevel(l, w, t1.Sub(t0), n)
			}
		}
		if e.bar == nil {
			continue
		}
		if !e.bar.await() {
			return resilience.Quarantined(engineName)
		}
		if o != nil {
			o.AddWait(w, time.Since(t1))
		}
	}
	if gl != nil && e.bar != nil {
		// Level gating elides barriers, including — when the trailing
		// levels are skipped — the crossing that makes Run's return the
		// helpers' quiescence point. Without it a helper could still be
		// reading the gate arrays while the caller rewrites them for the
		// next vector. One unconditional closing barrier (all workers read
		// the same gl, so all parties reach it) restores the ordering; the
		// interior eliding is where the savings are.
		if !e.bar.await() {
			return resilience.Quarantined(engineName)
		}
	}
	return nil
}

// Close releases the helper workers. The engine must not be run again
// after Close; Close on a single-worker engine only stops the watchdog.
// If a guarded run abandoned a wedged worker (Leaked), Close does not
// wait for it: the worker exits on its own when (if) it ever returns
// and finds the engine closed.
func (e *Engine) Close() {
	e.DisarmStream() // backstop: a quarantined stream may still be armed
	e.closed.Store(true)
	e.seq.Add(1)
	for _, h := range e.helpers {
		close(h.wake)
	}
	if !e.leaked {
		e.done.Wait()
	}
	if e.wd != nil {
		e.wd.Close()
		e.wd = nil
	}
	e.helpers = nil
}

// Pool is a minimal persistent worker pool for vector-batch parallelism:
// Do runs f(worker) once per worker concurrently, with the caller
// executing worker 0. Unlike Engine it carries no plan — callers
// partition the vector stream themselves.
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

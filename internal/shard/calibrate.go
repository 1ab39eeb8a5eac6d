package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"udsim/internal/program"
)

// Barrier calibration prices one crossing of a generation barrier in op
// units (see OpCost): it times real crossings at the requested worker
// count, times a reference instruction workload to convert nanoseconds
// into op units, and caches the result per worker count so the
// measurement runs once per process. No executor crosses a barrier; the
// measurement prices what a level-synchronous multicore schedule would
// pay per level, and benchmark tooling reports it.

// barrierCostOps is the floor of a calibrated crossing in op units. A
// real crossing on a loaded or single-core machine costs far more.
const barrierCostOps = 150

// barrier is a reusable generation barrier for a fixed party count: an
// atomic arrival countdown and a generation counter. Waiters yield the
// processor with runtime.Gosched until the generation moves, so a
// crossing never parks and the barrier still makes progress with
// GOMAXPROCS=1 or more parties than cores.
type barrier struct {
	parties int32
	arrived atomic.Int32
	gen     atomic.Uint32
}

func newBarrier(parties int) *barrier { return &barrier{parties: int32(parties)} }

// await blocks until all parties have arrived at the barrier's current
// generation. The last arriver resets the countdown and advances the
// generation; the generation advance is the release point that orders
// every party's pre-barrier writes before every party's post-barrier
// reads.
func (b *barrier) await() {
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.parties {
		b.arrived.Store(0)
		b.gen.Store(gen + 1)
		return
	}
	for b.gen.Load() == gen {
		runtime.Gosched()
	}
}

var calibration struct {
	sync.Mutex
	byWorkers map[int]int64
}

// CalibrateBarrier measures one barrier crossing for the given worker
// count on this machine and returns its cost in op units, never less
// than barrierCostOps. The result is cached per worker count; the first
// call per count blocks for roughly a millisecond. workers < 2 returns
// barrierCostOps (one party crosses nothing).
func CalibrateBarrier(workers int) int64 {
	if workers < 2 {
		return barrierCostOps
	}
	calibration.Lock()
	defer calibration.Unlock()
	if calibration.byWorkers == nil {
		calibration.byWorkers = make(map[int]int64)
	}
	if v, ok := calibration.byWorkers[workers]; ok {
		return v
	}
	v := measureBarrierOps(workers)
	if v < barrierCostOps {
		v = barrierCostOps
	}
	calibration.byWorkers[workers] = v
	return v
}

// measureBarrierOps times real crossings and converts to op units via a
// reference workload of known op cost.
func measureBarrierOps(workers int) int64 {
	const crossings = 64
	bar := newBarrier(workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < crossings; i++ {
				bar.await()
			}
		}()
	}
	t0 := time.Now()
	for i := 0; i < crossings; i++ {
		bar.await()
	}
	nsPerCross := float64(time.Since(t0)) / crossings
	wg.Wait()

	// Reference workload: refOps op units of plain word operations, the
	// same instructions the cost model prices at 1.
	const refInstrs = 512
	const refReps = 8
	code := make([]program.Instr, refInstrs)
	for i := range code {
		code[i] = program.Instr{Op: program.OpAnd, Dst: 2, A: 0, B: 1}
	}
	st := []uint64{0x5555555555555555, 0x3333333333333333, 0}
	t0 = time.Now()
	for r := 0; r < refReps; r++ {
		program.Exec(code, st, 64)
	}
	nsPerOp := float64(time.Since(t0)) / (refInstrs * refReps)
	if nsPerOp <= 0 {
		return barrierCostOps
	}
	return int64(nsPerCross / nsPerOp)
}

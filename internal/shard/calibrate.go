package shard

import (
	"sync"
	"time"

	"udsim/internal/program"
)

// Barrier calibration: the cost model prices a barrier crossing in op
// units (barrierCostOps), and BENCH_r2/r3 showed the static default is
// wildly optimistic on loaded or single-core machines — which made
// EstimatedSpeedup favour sharded execution exactly where it loses.
// CalibrateBarrier replaces the guess with a measurement: it times real
// crossings of the engine's own barrier at the requested worker count,
// times a reference instruction workload to convert nanoseconds into op
// units, and caches the result per worker count so the measurement runs
// once per process.

var calibration struct {
	sync.Mutex
	byWorkers map[int]int64
}

// CalibrateBarrier measures one barrier crossing for the given worker
// count on this machine and returns its cost in op units, never less
// than the static default. The result is cached per worker count; the
// first call per count blocks for roughly a millisecond. workers < 2
// returns the static default (a solo plan crosses no barriers).
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

package harness

import (
	"fmt"
	"time"

	"udsim"
	"udsim/internal/resilience/chaos"
	"udsim/internal/texttable"
)

// Chaos reproduces the guarded-execution study: for each circuit, the
// unfaulted guard overhead (a guarded activity-gated stream against the
// bare engine — the supervisor's steady-state cost is checkpointing,
// targeted at ≤2%) and a recovery drill — a deterministic panic
// injected mid-stream that the supervisor must absorb by quarantining
// the gated strategy and replaying the batch sequentially, leaving
// outputs bit-identical to an unfaulted sequential run. The drill's
// guard counters (faults, replays, oracle cross-checks) come from the
// same observer export a production scraper would read.
func Chaos(o Options) (*Result, error) {
	o = o.withDefaults()
	pol := udsim.DefaultGuardPolicy()
	t := texttable.New(
		fmt.Sprintf("Guarded execution — overhead and recovery drill (%d vectors, W=%d, activity-gated)",
			o.Vectors, o.WordBits),
		"Circuit", "Bare", "Guarded", "Overhead", "Drill", "Recovered", "Replayed", "Checks")
	var sumBare, sumGuard float64
	for _, name := range o.Circuits {
		c, vecs, err := bench(o, name)
		if err != nil {
			return nil, err
		}
		timeStream := func(extra ...udsim.Option) (time.Duration, error) {
			opts := append([]udsim.Option{
				udsim.WithWordBits(o.WordBits),
				udsim.WithExec(udsim.ExecActivityGated, 1),
			}, extra...)
			e, err := udsim.Open(c, udsim.TechParallel, opts...)
			if err != nil {
				return 0, err
			}
			se := e.(streamEngine)
			defer se.Close()
			var best time.Duration
			for r := 0; r <= o.Repeats; r++ {
				if err := se.ResetConsistent(nil); err != nil {
					return 0, err
				}
				start := time.Now()
				if err := se.ApplyStream(vecs.Bits); err != nil {
					return 0, err
				}
				// Repeat 0 is the warm-up pass (checkpoint buffers, clones).
				if d := time.Since(start); r == 1 || (r > 1 && d < best) {
					best = d
				}
			}
			return best, nil
		}
		dBare, err := timeStream()
		if err != nil {
			return nil, err
		}
		dGuard, err := timeStream(udsim.WithGuard(pol))
		if err != nil {
			return nil, err
		}
		overhead := 100 * (dGuard.Seconds() - dBare.Seconds()) / dBare.Seconds()
		sumBare += dBare.Seconds()
		sumGuard += dGuard.Seconds()

		drill, recovered, replayed, checks, err := chaosDrill(o, c, vecs.Bits)
		if err != nil {
			return nil, err
		}
		t.Add(name, secs(dBare), secs(dGuard), fmt.Sprintf("%+.1f%%", overhead),
			drill, recovered, replayed, checks)
	}
	t.Add("TOTAL", fmt.Sprintf("%.3f", sumBare), fmt.Sprintf("%.3f", sumGuard),
		fmt.Sprintf("%+.1f%%", 100*(sumGuard-sumBare)/sumBare), "", "", "", "")
	return &Result{Table: t, Notes: []string{
		"target: guarded steady state ≤2% over bare; 0 allocs/op enforced by BenchmarkGuardedStream -benchmem",
		"drill: deterministic panic at (run 3, level 0) → quarantine + sequential replay;",
		"Recovered=yes means the stream completed and every settled net matched a sequential reference",
	}}, nil
}

// chaosDrill injects one panic into a guarded activity-gated stream and
// reports how the supervisor handled it: the fault kind it recorded,
// whether the stream recovered bit-identically, and the replay /
// cross-check counts from the guard counters.
func chaosDrill(o Options, c *udsim.Circuit, vecs [][]bool) (drill, recovered string, replayed, checks int64, err error) {
	run := 3
	if len(vecs) < run {
		run = 1
	}
	inj := chaos.PanicAt(run, 0)
	pol := udsim.DefaultGuardPolicy()
	if n := len(vecs) / 8; n > 0 {
		pol.CrossCheckEvery = n // sample the oracle a few times per stream
	}
	ob := udsim.NewObserver(udsim.ObserverConfig{})
	e, err := udsim.Open(c, udsim.TechParallel,
		udsim.WithWordBits(o.WordBits),
		udsim.WithExec(udsim.ExecActivityGated, 1),
		udsim.WithGuard(pol),
		udsim.WithFaultInjection(inj),
		udsim.WithObserver(ob))
	if err != nil {
		return "", "", 0, 0, err
	}
	g := e.(*udsim.GuardedSim)
	defer g.Close()
	if err := g.ResetConsistent(nil); err != nil {
		return "", "", 0, 0, err
	}
	streamErr := g.ApplyStream(vecs)

	drill, recovered = "none", "no"
	if f := g.LastFault(); f != nil {
		drill = f.Kind.String()
	}
	gs := ob.Snapshot().Guard
	replayed, checks = gs.ReplayedVectors, gs.CrossChecks
	if streamErr != nil || !g.Degraded() {
		return drill, recovered, replayed, checks, nil
	}
	// Recovery only counts if the degraded outputs are bit-identical to
	// an unfaulted sequential run of the same stream.
	ref, err := udsim.Open(c, udsim.TechParallel, udsim.WithWordBits(o.WordBits))
	if err != nil {
		return "", "", 0, 0, err
	}
	if err := ref.ResetConsistent(nil); err != nil {
		return "", "", 0, 0, err
	}
	if err := ref.(udsim.Streamer).ApplyStream(vecs); err != nil {
		return "", "", 0, 0, err
	}
	recovered = "yes"
	for i := range g.Circuit().Nets {
		if g.Final(udsim.NetID(i)) != ref.Final(udsim.NetID(i)) {
			recovered = "DIVERGED"
			break
		}
	}
	return drill, recovered, replayed, checks, nil
}

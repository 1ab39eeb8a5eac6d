package main

import (
	"math/rand"
	"time"

	"udsim"
	"udsim/internal/native"
	"udsim/internal/obs"
	"udsim/internal/parsim"
)

// The native backend has no workload of its own: its end-to-end figures
// did not hold still from run to run (README.md gives the figures).
// serve-warm's traced run measures its layer instead, on the served
// circuit: the closure over alternating stage rebuilds and real native
// Opens, then batches through the traced pipeline's supervisor, every
// vector checked against the in-process engine.
const (
	nativeBatchSize = 2048
	nativeBatches   = 8   // distinct seeded batches
	nativeRuns      = 200 // batches the layer measurement sends
)

// nativeBuild is the traced pipeline's native engine: the in-process
// compile, then the supervisor, which generates the child, builds it
// and handshakes.
type nativeBuild struct {
	sup                    *native.Supervisor
	outputs                int
	compile, newSup, build time.Duration
}

func buildNative(tr *tracer, bench string, ob *obs.Observer) (*nativeBuild, *udsim.Circuit, error) {
	o := newOpener(tr, serveCircuit)
	defer o.done()
	c, err := o.parse(serveCircuit, bench)
	if err != nil {
		return nil, nil, err
	}
	var s *parsim.Sim
	if err := o.stage("parsim.compile", func() (err error) {
		s, err = parsim.Compile(c, parsim.Config{})
		return err
	}); err != nil {
		return nil, nil, err
	}
	defer s.Close()
	nb := &nativeBuild{compile: o.stages, outputs: len(s.Circuit().Outputs)}
	init, sim := s.Programs()
	if err := o.stage("native.new", func() (err error) {
		nb.sup, err = native.New(native.Config{
			Engine:      "native/parallel",
			Technique:   udsim.TechParallel.String(),
			CircuitHash: native.HashBench(s.Circuit()),
			Layout:      native.ParallelLayout(s, s.Circuit()),
			Init:        init,
			Sim:         sim,
			Policy:      udsim.DefaultGuardPolicy(),
			Obs:         ob,
		})
		return err
	}); err != nil {
		return nil, nil, err
	}
	nb.newSup, nb.build = o.stages-nb.compile, nb.sup.BuildTime()
	return nb, c, nil
}

// nativeLayer measures the native backend on in's circuit for a traced
// run: build and handshake times, the batch round trip, respawns and
// fallbacks. It returns the closure of the native Open.
func nativeLayer(in *serveInputs, seed int64, tr *tracer, out *outcome) (closure, error) {
	r := rand.New(rand.NewSource(seed))
	batches := make([][][]bool, nativeBatches)
	for i := range batches {
		batches[i] = genVectors(r, nativeBatchSize, len(in.circ.Inputs), 0)
	}
	wants, err := directDigests(in.circ, batches)
	if err != nil {
		return closure{}, err
	}
	// Untimed warm-up: the first build fills the toolchain's cache with
	// the standard packages the child imports.
	warm, err := udsim.Open(in.circ, udsim.TechParallel, udsim.WithNativeBackend())
	if err != nil {
		return closure{}, err
	}
	closeEngine(warm)

	ob := obs.New(obs.Config{})
	var (
		nb                 *nativeBuild
		stages, opens      []time.Duration
		builds, handshakes []time.Duration
	)
	for rep := 0; rep < closureReps; rep++ {
		if nb != nil {
			nb.sup.Close()
		}
		var c *udsim.Circuit
		if nb, c, err = buildNative(tr, in.bench, ob); err != nil {
			return closure{}, err
		}
		stages = append(stages, nb.compile+nb.newSup)
		builds = append(builds, nb.build)
		handshakes = append(handshakes, nb.newSup-nb.build)
		t0 := time.Now()
		e, err := udsim.Open(c, udsim.TechParallel, udsim.WithNativeBackend())
		opens = append(opens, time.Since(t0))
		if err != nil {
			nb.sup.Close()
			return closure{}, err
		}
		closeEngine(e)
	}
	defer nb.sup.Close()
	out.metrics["native.build_s"] = medianDuration(builds).Seconds()
	out.metrics["native.handshake_s"] = medianDuration(handshakes).Seconds()

	var (
		rtts      []float64
		batchErrs int
	)
	for i := 0; i < nativeRuns; i++ {
		k := i % nativeBatches
		sid := tr.begin(tr.op(), 0, "native.batch")
		t0 := time.Now()
		res, err := nb.sup.RunBatch(batches[k])
		rtts = append(rtts, millis(time.Since(t0)))
		tr.end(sid)
		if err != nil {
			batchErrs++
			out.check(false, "native batch %d: %v", k, err)
			continue
		}
		d := newDigester(nb.outputs)
		for _, po := range res {
			for i := 0; i < nb.outputs; i++ {
				d.set(i, native.Bit(po, i))
			}
			d.next()
		}
		out.check(d.sum() == wants[k], "native batch %d: digest %v, in-process engine %v", k, d.sum(), wants[k])
	}
	if f := nb.sup.LastFault(); f != nil {
		out.check(false, "native child faulted: %v", f)
	}
	out.metrics["native.batch_rtt_ms"] = median(rtts)
	out.metrics["native.respawns"] = float64(ob.Snapshot().Native.Respawns)
	// A failed batch is one the facade's native engine would have
	// handed to its in-process fallback.
	out.metrics["native.fallbacks"] = float64(batchErrs)
	out.note("native layer: %d %d-vector batches, every vector's outputs checked against the in-process engine",
		nativeRuns, nativeBatchSize)
	return closure{stages: medianDuration(stages), open: medianDuration(opens)}, nil
}

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"udsim"
	"udsim/internal/align"
	"udsim/internal/bench85"
	"udsim/internal/codegen/ir"
	"udsim/internal/codegen/validate"
	"udsim/internal/levelize"
	"udsim/internal/obs"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/resub"
	"udsim/internal/shard"
	"udsim/internal/verify"
)

// The traced sim runs rebuild every engine stage by stage through the
// compile stages' exported entry points, in the order udsim.Open runs
// them, with one span per stage. Those engines are the ones streamed,
// so the gating and shard counters come from the very programs the
// stages produced.

// closureReps is how many times the traced run builds the engines and
// opens them for real, alternating which goes first, for the closure
// check.
const closureReps = 5

// mirrorBuild is one circuit's engines as the traced pipeline built
// them, and what the stages reported.
type mirrorBuild struct {
	streams []*stream
	stages  time.Duration // the stage spans' sum; parsing precedes Open
	counts  map[string]float64
}

// opener records one open: a root span per circuit and a child span per
// stage.
type opener struct {
	tr       *tracer
	op, root int
	stages   time.Duration
}

func newOpener(tr *tracer, name string) *opener {
	op := tr.op()
	return &opener{tr: tr, op: op, root: tr.begin(op, 0, "open "+name)}
}

// stage runs one compile stage under a span that counts toward the
// closure.
func (o *opener) stage(name string, f func() error) error {
	d, err := o.tr.do(o.op, o.root, name, f)
	o.stages += d
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// parse runs the .bench parser under a span outside the closure: the
// real Open starts from the parsed circuit.
func (o *opener) parse(name, text string) (*udsim.Circuit, error) {
	var c *udsim.Circuit
	_, err := o.tr.do(o.op, o.root, "bench85.parse", func() (err error) {
		c, err = bench85.Parse(strings.NewReader(text), name)
		return err
	})
	return c, err
}

func (o *opener) done() { o.tr.end(o.root) }

// parsimStream wraps a traced-pipeline parallel engine as a stream.
func parsimStream(bt benchText, label string, s *parsim.Sim, probes []probe) *stream {
	st := &stream{
		label: bt.name + "/" + label, tech: "parallel", eng: s, probes: probes,
		segs: bt.segs, wants: bt.wants, close: s.Close,
		obsv: s, gating: s.GatingLevels,
	}
	if p := s.ExecPlan(); p != nil {
		st.levels = p.Stats().Levels
	}
	return st
}

// mirrorStream rebuilds sim-stream's two engines: openParallel's
// shift-elimination branch, then openPCSet.
func mirrorStream(tr *tracer, bt benchText) (*mirrorBuild, error) {
	o := newOpener(tr, bt.name)
	defer o.done()
	c, err := o.parse(bt.name, bt.text)
	if err != nil {
		return nil, err
	}
	var (
		norm *udsim.Circuit
		a    *levelize.Analysis
		al   *align.Result
		ps   *parsim.Sim
		pc   *pcset.Sim
	)
	if err := o.stage("levelize.analyze", func() (err error) {
		norm, a, err = parsim.Analyze(c)
		return err
	}); err != nil {
		return nil, err
	}
	if err := o.stage("align.path_trace", func() error {
		al = align.PathTrace(a)
		return al.Validate()
	}); err != nil {
		return nil, err
	}
	if err := o.stage("parsim.compile", func() (err error) {
		ps, err = parsim.Compile(norm, parsim.Config{Trim: true, Align: al})
		return err
	}); err != nil {
		return nil, err
	}
	if err := o.stage("pcset.compile", func() (err error) {
		pc, err = pcset.Compile(c, nil)
		return err
	}); err != nil {
		ps.Close()
		return nil, err
	}
	pcs := &stream{
		label: bt.name + "/pcset", tech: "pcset", eng: pc, probes: plainProbes(pc.Circuit().Outputs),
		segs: bt.segs, wants: bt.wants, close: pc.Close, obsv: pc,
	}
	return &mirrorBuild{
		streams: []*stream{parsimStream(bt, "parallel-pt-trim", ps, plainProbes(ps.Circuit().Outputs)), pcs},
		stages:  o.stages,
		counts: map[string]float64{
			"parsim.instrs": float64(ps.CodeSize()),
			"pcset.instrs":  float64(pc.CodeSize()),
		},
	}, nil
}

// remap translates original net IDs onto a resubstituted netlist the
// way the facade's engines do, so the traced pipeline's engine answers
// for the original circuit's nets.
type remap struct {
	opt               []udsim.NetID
	inv, isC, val, ok []bool
}

func newRemap(res *resub.Result) (*remap, error) {
	n := res.Original.NumNets()
	rm := &remap{
		opt: make([]udsim.NetID, n),
		inv: make([]bool, n), isC: make([]bool, n), val: make([]bool, n), ok: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		target, inv, isC, val, ok := res.Resolve(udsim.NetID(i))
		rm.inv[i], rm.isC[i], rm.val[i], rm.ok[i] = inv, isC, val, ok
		if !ok || isC {
			continue
		}
		name := res.Original.Net(target).Name
		id, found := res.Optimized.NetByName(name)
		if !found {
			return nil, fmt.Errorf("resubstitution target %q missing from the optimized circuit", name)
		}
		rm.opt[i] = id
	}
	return rm, nil
}

// probe reads original net n: a proven constant, a stripped net (false)
// or the surviving representative.
func (rm *remap) probe(n udsim.NetID) probe {
	switch {
	case rm.isC[n]:
		return probe{isConst: true, val: rm.val[n]}
	case !rm.ok[n]:
		return probe{isConst: true}
	}
	return probe{net: rm.opt[n], inv: rm.inv[n]}
}

// crossCheckVectors is the sampled bit-identity budget udsim.Open pays
// against the unoptimized twin under WithResubstitution.
const crossCheckVectors = 64

// crossCheck mirrors Open's resubstitution cross-check: sampled random
// vectors through the optimized engine and an unoptimized twin,
// comparing every surviving original net.
func crossCheck(s *parsim.Sim, rm *remap, res *resub.Result) error {
	if !res.Changed() {
		return nil
	}
	twin, err := parsim.Compile(res.Original, parsim.Config{Trim: true})
	if err != nil {
		return err
	}
	defer twin.Close()
	orig := res.Original
	r := rand.New(rand.NewSource(res.Cert.Seed + 1))
	vec := make([]bool, len(orig.Inputs))
	if err := s.ResetConsistent(nil); err != nil {
		return err
	}
	if err := twin.ResetConsistent(nil); err != nil {
		return err
	}
	for v := 0; v < crossCheckVectors; v++ {
		for i := range vec {
			vec[i] = r.Int63()&1 == 1
		}
		if err := s.ApplyVector(vec); err != nil {
			return err
		}
		if err := twin.ApplyVector(vec); err != nil {
			return err
		}
		for i := range orig.Nets {
			n := udsim.NetID(i)
			if !rm.ok[n] {
				continue
			}
			if rm.probe(n).read(s) != twin.Final(n) {
				return fmt.Errorf("net %q differs from the unoptimized twin on sampled vector %d", orig.Nets[i].Name, v)
			}
		}
	}
	return s.ResetConsistent(nil)
}

// mirrorProved rebuilds sim-proved's engine in openParallel's order:
// resubstitution, compile, verification, dead-store elimination,
// codegen validation, the shard plan, then the resubstitution
// cross-check.
func mirrorProved(tr *tracer, bt benchText) (*mirrorBuild, error) {
	o := newOpener(tr, bt.name)
	defer o.done()
	c, err := o.parse(bt.name, bt.text)
	if err != nil {
		return nil, err
	}
	var (
		res      *resub.Result
		rm       *remap
		s        *parsim.Sim
		findings int
		removed  int
		barrier  int64
	)
	if err := o.stage("resub.rewrite", func() (err error) {
		if res, err = resub.Run(c, resub.Config{}); err != nil {
			return err
		}
		if rep := verify.CheckRewriteStructure(res); !rep.Clean() {
			return fmt.Errorf("rule V013: %w", rep.Err())
		}
		rm, err = newRemap(res)
		return err
	}); err != nil {
		return nil, err
	}
	if err := o.stage("parsim.compile", func() (err error) {
		s, err = parsim.Compile(res.Optimized, parsim.Config{Trim: true})
		return err
	}); err != nil {
		return nil, err
	}
	fail := func(err error) (*mirrorBuild, error) {
		s.Close()
		return nil, err
	}
	if err := o.stage("verify.check", func() error {
		rep := verify.Check(s.Spec(), verify.Options{})
		findings += rep.Count(verify.SevWarning) + rep.Count(verify.SevError)
		return rep.Err()
	}); err != nil {
		return fail(err)
	}
	if err := o.stage("dataflow.dse", func() (err error) {
		removed, err = s.EliminateDeadStores()
		return err
	}); err != nil {
		return fail(err)
	}
	if err := o.stage("codegen.validate", func() error {
		pi, ps := s.Programs()
		vr, err := validate.CheckUnits("gensim",
			[]ir.Source{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}, s.Spec())
		if err != nil {
			return err
		}
		findings += vr.Report.Count(verify.SevWarning) + vr.Report.Count(verify.SevError)
		return vr.Report.Err()
	}); err != nil {
		return fail(err)
	}
	if err := o.stage("shard.plan", func() error {
		barrier = shard.CalibrateBarrier(provedWorkers)
		_, err := s.ConfigureExec(shard.ActivityGated, provedWorkers)
		return err
	}); err != nil {
		return fail(err)
	}
	if err := o.stage("resub.crosscheck", func() error { return crossCheck(s, rm, res) }); err != nil {
		return fail(err)
	}
	probes := make([]probe, len(res.Original.Outputs))
	for i, po := range res.Original.Outputs {
		probes[i] = rm.probe(po)
	}
	st := parsimStream(bt, "parallel-proved", s, probes)
	return &mirrorBuild{
		streams: []*stream{st},
		stages:  o.stages,
		counts: map[string]float64{
			"parsim.instrs":        float64(s.CodeSize()),
			"resub.gates_removed":  float64(res.Original.NumGates() - res.Optimized.NumGates()),
			"verify.findings":      float64(findings),
			"dataflow.dse_removed": float64(removed),
			"shard.barrier_ops":    float64(barrier),
			"shard.levels":         float64(st.levels),
		},
	}, nil
}

// simStages are the stage spans the traced sim runs report, by the
// per-layer metric each one feeds.
var simStages = map[string]string{
	"bench85.parse":    "bench85.parse_s",
	"levelize.analyze": "levelize.analyze_s",
	"align.path_trace": "align.path_trace_s",
	"parsim.compile":   "parsim.compile_s",
	"pcset.compile":    "pcset.compile_s",
	"resub.rewrite":    "resub.rewrite_s",
	"verify.check":     "verify.check_s",
	"dataflow.dse":     "dataflow.dse_s",
	"codegen.validate": "codegen.validate_s",
	"shard.plan":       "shard.plan_s",
	"resub.crosscheck": "resub.crosscheck_s",
}

func closeBuilds(bs []*mirrorBuild) {
	for _, b := range bs {
		closeAll(b.streams)
	}
}

// closureRep builds every circuit's engines through the traced
// pipeline and, circuit by circuit, opens the same circuit for real,
// so both see the same heap. Odd repetitions open for real first. The
// real engines close when the repetition ends; the built ones are
// returned.
func closureRep(spec *simSpec, tr *tracer, texts []benchText, realFirst bool) (bs []*mirrorBuild, stages, open time.Duration, err error) {
	var real []udsim.Engine
	defer func() {
		for _, e := range real {
			closeEngine(e)
		}
		if err != nil {
			closeBuilds(bs)
		}
	}()
	for _, bt := range texts {
		c, err := udsim.ParseBench(strings.NewReader(bt.text), bt.name)
		if err != nil {
			return bs, 0, 0, err
		}
		build := func() error {
			b, err := spec.mirror(tr, bt)
			if err != nil {
				return fmt.Errorf("%s: %w", bt.name, err)
			}
			bs = append(bs, b)
			stages += b.stages
			return nil
		}
		openAll := func() error {
			for _, t := range spec.techs {
				t0 := time.Now()
				e, err := udsim.Open(c, t.tech, t.opts...)
				open += time.Since(t0)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", bt.name, t.label, err)
				}
				real = append(real, e)
			}
			return nil
		}
		steps := []func() error{build, openAll}
		if realFirst {
			steps[0], steps[1] = openAll, build
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return bs, 0, 0, err
			}
		}
	}
	return bs, stages, open, nil
}

// tracedPass is pass with an observer attached to every engine and a
// span around every stream. Attaching and detaching are not timed.
func tracedPass(ss []*stream, n int, out *outcome, tr *tracer) (passResult, []*obs.Snapshot) {
	for _, s := range ss {
		s.obsv.SetObserver(obs.New(obs.Config{}))
	}
	pr := pass(ss, n, out, tr)
	snaps := make([]*obs.Snapshot, len(ss))
	for i, s := range ss {
		snaps[i] = s.obsv.Snapshot()
		s.obsv.SetObserver(nil)
	}
	return pr, snaps
}

// traceSim is the traced run of a sim workload: the closure check,
// then alternating untraced and traced passes over the traced
// pipeline's engines.
func traceSim(cfg config, spec *simSpec, texts []benchText) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	var (
		bs          []*mirrorBuild
		stageTotals []time.Duration
		openTotals  []time.Duration
		stageReps   = make(map[string][]float64)
	)
	for rep := 0; rep < closureReps; rep++ {
		closeBuilds(bs)
		runtime.GC()
		mark := tr.mark()
		var (
			stages, open time.Duration
			err          error
		)
		bs, stages, open, err = closureRep(spec, tr, texts, rep%2 == 1)
		if err != nil {
			return nil, err
		}
		for name, metric := range simStages {
			stageReps[metric] = append(stageReps[metric], tr.since(mark, name).Seconds())
		}
		stageTotals = append(stageTotals, stages)
		openTotals = append(openTotals, open)
	}
	defer closeBuilds(bs)
	cl := closure{stages: medianDuration(stageTotals), open: medianDuration(openTotals)}
	out.check(cl.ok(), "closure: %v", cl)
	out.note("closure over %d alternating builds and real Opens: %v", closureReps, cl)
	out.metrics["trace.closure_gap"] = cl.gap()
	for metric, xs := range stageReps {
		out.metrics[metric] = median(xs)
	}
	var ss []*stream
	for _, b := range bs {
		ss = append(ss, b.streams...)
		for name, v := range b.counts {
			if name == "shard.barrier_ops" {
				out.metrics[name] = v // one calibration per process
				continue
			}
			out.metrics[name] += v
		}
	}

	for k := 0; k < spec.segments; k++ {
		pass(ss, k, out, nil)
	}
	type gate struct{ vectors, run, skipped int64 }
	gateOf := func() (g gate) {
		for _, s := range ss {
			if s.gating != nil {
				v, r, k := s.gating()
				g.vectors, g.run, g.skipped = g.vectors+v, g.run+r, g.skipped+k
			}
		}
		return g
	}
	var (
		plainVPS, tracedVPS []float64
		plainTech           = make(map[string]time.Duration) // untraced stream time per technique
		tracedInstrs        = make(map[string]int64)         // executed instructions per technique
		plainVectors        int64
		busy, wait, decide  int64
		plainMem            memDelta
	)
	g0 := gateOf()
	all := markMem()
	start := time.Now()
	n := 0
	for ; time.Since(start) < cfg.dur || n < 2; n++ {
		if n%2 == 0 {
			m := markMem()
			pr := pass(ss, n/2, out, nil)
			plainMem.add(m.since())
			plainVPS = append(plainVPS, pr.vps())
			plainVectors += int64(pr.vectors)
			for i, s := range ss {
				plainTech[s.tech] += pr.streams[i]
			}
			continue
		}
		pr, snaps := tracedPass(ss, n/2, out, tr)
		tracedVPS = append(tracedVPS, pr.vps())
		for i, sn := range snaps {
			tracedInstrs[ss[i].tech] += sn.Instrs + sn.InitInstrs
			busy += sn.BusyNanos()
			wait += sn.BarrierWaitNanos()
			decide += sn.GatingNanos
		}
	}
	allMem := all.since()
	g1 := gateOf()
	plainPasses, tracedPasses := float64(len(plainVPS)), float64(len(tracedVPS))

	var instrs int64
	for tech, ti := range tracedInstrs {
		perPass := float64(ti) / tracedPasses
		instrs += ti
		out.metrics["program.ns_per_instr."+tech] = float64(plainTech[tech]) / plainPasses / perPass
	}
	out.metrics["program.instrs_per_vector"] = float64(instrs) / tracedPasses / (float64(plainVectors) / plainPasses)
	out.metrics["runtime.allocs_per_vector"] = float64(plainMem.mallocs) / float64(plainVectors)
	out.metrics["runtime.gc_cycles"] = float64(allMem.gcCycles)
	out.metrics["runtime.gc_pause_ms"] = millis(allMem.gcPause)
	out.metrics["obs.overhead_share"] = 1 - median(tracedVPS)/median(plainVPS)
	if dv := g1.vectors - g0.vectors; dv > 0 {
		levels := g1.run - g0.run + g1.skipped - g0.skipped
		out.metrics["parsim.gate_skip_ratio"] = float64(g1.skipped-g0.skipped) / float64(levels)
		// Each executed level is one barrier crossing, plus the closing
		// barrier every gated vector takes.
		out.metrics["shard.barriers_per_vector"] = float64(g1.run-g0.run)/float64(dv) + 1
		out.metrics["shard.busy_s"] = float64(busy) / 1e9 / tracedPasses
		out.metrics["shard.barrier_wait_s"] = float64(wait) / 1e9 / tracedPasses
		out.metrics["parsim.gate_decide_s"] = float64(decide) / 1e9 / tracedPasses
		out.note("plan shape: %d levels over %d circuits, %d shards, %.2f barriers per vector, barrier cost %v ops",
			int(out.metrics["shard.levels"]), len(bs), provedWorkers,
			out.metrics["shard.barriers_per_vector"], out.metrics["shard.barrier_ops"])
	}
	out.note("%d untraced and %d traced passes; busy/wait/decide seconds are per traced pass", len(plainVPS), len(tracedVPS))
	if cfg.spans != "" {
		path, err := tr.write(cfg.spans, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.note("spans written to %s", path)
	}
	return out, nil
}

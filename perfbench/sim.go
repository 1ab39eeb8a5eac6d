package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"udsim"
	"udsim/internal/obs"
)

// The two in-process workloads stream all ten ISCAS-85 profiles,
// parsed from .bench text, through the facade. A pass streams every
// engine's seeded vectors once from the reset state; each stream is
// one latency sample and one checked operation, and each pass one
// throughput sample.

// simSpec is what distinguishes sim-stream from sim-proved.
type simSpec struct {
	// vectors is the per-circuit stream length, the same for every
	// circuit and technique.
	vectors int
	// segments is how many distinct seeded streams each circuit has;
	// pass k streams segment k mod segments, so data-dependent costs
	// average over segments*vectors vectors rather than one stream.
	segments int
	// flip is the per-input toggle probability from one vector to the
	// next; 0 draws every vector uniformly at random.
	flip float64
	// techs are the engines opened per circuit.
	techs []technique
	// mirror rebuilds one circuit's engines stage by stage for the
	// traced run (see simtrace.go).
	mirror func(tr *tracer, bt benchText) (*mirrorBuild, error)
}

// technique is one engine configuration opened through udsim.Open.
type technique struct {
	label string
	tech  udsim.Technique
	opts  []udsim.Option
}

// provedWorkers is sim-proved's fixed shard count.
const provedWorkers = 2

var (
	streamSpec = simSpec{
		vectors:  200,
		segments: 4,
		techs: []technique{
			{"parallel-pt-trim", udsim.TechParallel,
				[]udsim.Option{udsim.WithShiftElimination(udsim.PathTracing), udsim.WithTrimming()}},
			{"pcset", udsim.TechPCSet, nil},
		},
		mirror: mirrorStream,
	}
	provedSpec = simSpec{
		vectors:  150,
		segments: 8,
		flip:     0.01,
		techs: []technique{
			{"parallel-proved", udsim.TechParallel, []udsim.Option{
				udsim.WithTrimming(),
				udsim.WithResubstitution(),
				udsim.WithDeadStoreElimination(),
				udsim.WithCodegenValidation(),
				udsim.WithExec(udsim.ExecActivityGated, provedWorkers),
			}},
		},
		mirror: mirrorProved,
	}
)

func simStream(cfg config) (*outcome, error) { return runSim(cfg, &streamSpec) }

func simProved(cfg config) (*outcome, error) { return runSim(cfg, &provedSpec) }

// benchText is one profile rendered as .bench text, with its seeded
// vector streams and the reference digest of each.
type benchText struct {
	name, text string
	segs       [][][]bool
	wants      []digest
}

// simInputs synthesizes the ten profiles as .bench text and draws each
// circuit's vector streams from the seed, then computes the reference
// digests. None of this is timed.
func simInputs(spec *simSpec, seed int64) ([]benchText, error) {
	r := rand.New(rand.NewSource(seed))
	var out []benchText
	for _, name := range udsim.ISCAS85Names() {
		c, err := udsim.ISCAS85(name)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := udsim.WriteBench(&b, c); err != nil {
			return nil, err
		}
		bt := benchText{name: name, text: b.String()}
		for k := 0; k < spec.segments; k++ {
			vecs := genVectors(r, spec.vectors, len(c.Inputs), spec.flip)
			want, err := referenceDigest(c, vecs)
			if err != nil {
				return nil, fmt.Errorf("%s: reference: %w", name, err)
			}
			bt.segs = append(bt.segs, vecs)
			bt.wants = append(bt.wants, want)
		}
		out = append(out, bt)
	}
	return out, nil
}

// genVectors draws n vectors of width inputs: uniformly at random when
// flip is 0, otherwise a uniform first vector after which each input
// toggles with probability flip.
func genVectors(r *rand.Rand, n, width int, flip float64) [][]bool {
	vecs := make([][]bool, n)
	cur := make([]bool, width)
	for i := range cur {
		cur[i] = r.Intn(2) == 1
	}
	for v := range vecs {
		if v > 0 {
			for i := range cur {
				if flip == 0 {
					cur[i] = r.Intn(2) == 1
				} else if r.Float64() < flip {
					cur[i] = !cur[i]
				}
			}
		}
		vecs[v] = append([]bool(nil), cur...)
	}
	return vecs
}

// vectorEngine is the per-vector surface shared by the facade's engines
// and the compiled simulators the traced pipeline builds.
type vectorEngine interface {
	ResetConsistent(inputs []bool) error
	ApplyVector(vec []bool) error
	Final(n udsim.NetID) bool
}

// facadeEngine adapts a udsim.Engine to vectorEngine.
type facadeEngine struct{ udsim.Engine }

func (f facadeEngine) ApplyVector(v []bool) error { return f.Apply(v) }

// observable is the counter surface of the traced pipeline's engines.
type observable interface {
	SetObserver(o *obs.Observer)
	Snapshot() *obs.Snapshot
}

// stream is one engine streaming one circuit's seeded vectors.
type stream struct {
	label  string // circuit/technique
	tech   string
	eng    vectorEngine
	probes []probe
	segs   [][][]bool
	wants  []digest
	close  func()
	dg     *digester // reused by every run, so the check allocates nothing

	// Traced pipeline only.
	obsv   observable
	gating func() (vectors, run, skipped int64)
	levels int
}

// run streams segment k's vectors from the reset state and returns the
// digest of each vector's settled primary outputs.
func (s *stream) run(k int) (digest, error) {
	if err := s.eng.ResetConsistent(nil); err != nil {
		return 0, err
	}
	if s.dg == nil {
		s.dg = newDigester(len(s.probes))
	}
	d := s.dg
	d.reset()
	for _, v := range s.segs[k] {
		if err := s.eng.ApplyVector(v); err != nil {
			return 0, err
		}
		d.fold(s.eng, s.probes)
	}
	return d.sum(), nil
}

// closeAll releases every stream's engine. It cannot fail; the error
// result fits repeatSetup.
func closeAll(ss []*stream) error {
	for _, s := range ss {
		if s.close != nil {
			s.close()
		}
	}
	return nil
}

// closeEngine releases an engine's workers or native child.
func closeEngine(e udsim.Engine) {
	if cl, ok := e.(udsim.Closer); ok {
		cl.Close()
	}
}

// openFacade is one set-up: parse every profile and open every
// technique on it through udsim.Open.
func openFacade(spec *simSpec, texts []benchText) ([]*stream, error) {
	var ss []*stream
	for _, bt := range texts {
		c, err := udsim.ParseBench(strings.NewReader(bt.text), bt.name)
		if err != nil {
			closeAll(ss)
			return nil, err
		}
		for _, t := range spec.techs {
			e, err := udsim.Open(c, t.tech, t.opts...)
			if err != nil {
				closeAll(ss)
				return nil, fmt.Errorf("%s/%s: %w", bt.name, t.label, err)
			}
			s := &stream{
				label:  bt.name + "/" + t.label,
				tech:   t.label,
				eng:    facadeEngine{e},
				probes: plainProbes(e.Circuit().Outputs),
				segs:   bt.segs,
				wants:  bt.wants,
			}
			if cl, ok := e.(udsim.Closer); ok {
				s.close = cl.Close
			}
			ss = append(ss, s)
		}
	}
	return ss, nil
}

// passResult is one pass over every stream.
type passResult struct {
	vectors int
	wall    time.Duration
	streams []time.Duration // per stream, in stream order
}

func (p passResult) vps() float64 { return float64(p.vectors) / p.wall.Seconds() }

// pass number n streams every engine once over its segment n mod
// segments, checking each digest. A non-nil tr records a span around
// every stream.
func pass(ss []*stream, n int, out *outcome, tr *tracer) passResult {
	pr := passResult{streams: make([]time.Duration, len(ss))}
	t0 := time.Now()
	for i, s := range ss {
		k := n % len(s.segs)
		var id int
		if tr != nil {
			id = tr.begin(tr.op(), 0, "stream "+s.label)
		}
		s0 := time.Now()
		d, err := s.run(k)
		pr.streams[i] = time.Since(s0)
		if tr != nil {
			tr.end(id)
		}
		switch {
		case err != nil:
			out.check(false, "%s: %v", s.label, err)
		default:
			out.check(d == s.wants[k], "%s segment %d: digest %v, reference %v", s.label, k, d, s.wants[k])
		}
		pr.vectors += len(s.segs[k])
	}
	pr.wall = time.Since(t0)
	return pr
}

// maxOverrun bounds how far past --seconds a run may go to collect the
// latency samples p99 needs.
const maxOverrun = 3

func runSim(cfg config, spec *simSpec) (*outcome, error) {
	texts, err := simInputs(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSim(cfg, spec, texts)
	}
	out := newOutcome()
	open := func() ([]*stream, error) { return openFacade(spec, texts) }
	ss, setups, err := timedSetup(open)
	if err != nil {
		return nil, err
	}
	for k := 0; k < spec.segments; k++ {
		pass(ss, k, out, nil) // untimed warm-up: caches fill, every segment is checked
	}
	var (
		vps []float64
		lat = make([][]float64, len(ss)) // per stream
		n   int
	)
	for start := time.Now(); time.Since(start) < cfg.dur || n*len(ss) < p99Samples; n++ {
		if time.Since(start) > maxOverrun*cfg.dur {
			break
		}
		pr := pass(ss, n, out, nil)
		vps = append(vps, pr.vps())
		for i, d := range pr.streams {
			lat[i] = append(lat[i], millis(d))
		}
	}
	closeAll(ss)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	more, err := repeatSetup(cfg.dur, open, closeAll)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	p50, p99, err := streamLatencies(lat)
	if err != nil {
		return nil, err
	}
	out.metrics["throughput_vps"] = median(vps)
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mib"] = rss
	out.metrics["latency_p50_ms"] = p50
	out.metrics["latency_p99_ms"] = p99
	out.note("%d engines, %d segments of %d vectors per stream; %d timed passes; %d stream latency samples; %s",
		len(ss), spec.segments, spec.vectors, n, n*len(ss), fmtSetups(setups))
	return out, nil
}

// timedSetup times one set-up. It starts on a collected heap, as the
// first set-up of a fresh process does, so a repeated set-up does not
// also collect the garbage of the phase before it.
func timedSetup[T any](open func() (T, error)) (T, []float64, error) {
	runtime.GC()
	t0 := time.Now()
	v, err := open()
	return v, []float64{time.Since(t0).Seconds()}, err
}

// setupShare sets the least time the set-ups after the timed phase
// take together, dur/setupShare. On a shared host one set-up runs up to
// a third faster or slower than the next in phases of a few hundred
// milliseconds, so the median of a burst of set-ups lands wherever the
// burst's phase happened to sit; spread over seconds, the median
// samples many phases.
const setupShare = 5

// minSetups is the least number of set-ups a run times; setup_s is
// their median.
const minSetups = 5

// repeatSetup times more set-ups, closing each one's engines, until the
// run has minSetups and dur/setupShare has passed. They run after the
// timed phase and after peak_rss_mib is read, so the repetitions that
// steady setup_s do not also raise the memory peak.
func repeatSetup[T any](dur time.Duration, open func() (T, error), close func(T) error) ([]float64, error) {
	var setups []float64
	for start := time.Now(); len(setups) < minSetups-1 || time.Since(start) < dur/setupShare; {
		v, secs, err := timedSetup(open)
		if err != nil {
			return nil, err
		}
		if err := close(v); err != nil {
			return nil, err
		}
		setups = append(setups, secs...)
	}
	return setups, nil
}

// streamLatencies summarizes per-stream latency samples, one per pass
// each. Every circuit streams at its own characteristic time, and each
// contributes the same number of samples, so the pooled median would
// sit on the gap between two circuits' clusters and jump across it
// from run to run; p50 is therefore the median of the streams' own
// medians. p99 is taken over the pooled samples in the order they were
// taken.
func streamLatencies(per [][]float64) (p50, p99 float64, err error) {
	var (
		pooled  []float64
		medians []float64
	)
	for n := range per[0] {
		for _, xs := range per {
			pooled = append(pooled, xs[n])
		}
	}
	for _, xs := range per {
		medians = append(medians, median(xs))
	}
	if _, p99, err = latencies(pooled); err != nil {
		return 0, 0, err
	}
	return median(medians), p99, nil
}

// fmtSetups summarizes set-up samples for a note.
func fmtSetups(xs []float64) string {
	s := sortedCopy(xs)
	return fmt.Sprintf("%d set-ups, median %.4f s (min %.4f, max %.4f)", len(s), median(s), s[0], s[len(s)-1])
}

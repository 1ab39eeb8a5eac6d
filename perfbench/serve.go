package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udsim"
	"udsim/internal/parsim"
	"udsim/internal/serve"
)

// serve-warm drives internal/serve's HTTP surface on a loopback
// httptest server: one small circuit, one batch size, digest-only
// batches that name the circuit by content hash, and a closed loop of
// two tenants, each with one connection.
const (
	serveCircuit   = "c880"
	serveBatchSize = 64 // vectors per batch
	serveBatches   = 32 // distinct seeded batches the tenants cycle through
	serveTenants   = 2
)

// serveConfig is udserve's flag defaults with the guard on.
func serveConfig() serve.Config {
	return serve.Config{
		CacheBytes:  256 << 20,
		PoolBound:   4,
		QueueDepth:  64,
		MaxVectors:  65536,
		Guard:       true,
		GuardPolicy: udsim.DefaultGuardPolicy(),
	}
}

// serveInputs is everything serve-warm sends and expects.
type serveInputs struct {
	bench   string
	circ    *udsim.Circuit
	batches [][]string // "0101…" vectors per batch
	vecs    [][][]bool // the same batches as bools
	wants   []digest   // reference digest per batch
}

func newServeInputs(seed int64) (*serveInputs, error) {
	c, err := udsim.ISCAS85(serveCircuit)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := udsim.WriteBench(&b, c); err != nil {
		return nil, err
	}
	in := &serveInputs{bench: b.String(), circ: c}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < serveBatches; i++ {
		vecs := genVectors(r, serveBatchSize, len(c.Inputs), 0)
		strs := make([]string, len(vecs))
		for j, v := range vecs {
			buf := make([]byte, len(v))
			for k, bit := range v {
				buf[k] = '0'
				if bit {
					buf[k] = '1'
				}
			}
			strs[j] = string(buf)
		}
		in.vecs = append(in.vecs, vecs)
		in.batches = append(in.batches, strs)
	}
	in.wants, err = directDigests(c, in.vecs)
	return in, err
}

// rig is one running service.
type rig struct {
	srv *serve.Server
	hs  *httptest.Server
	id  string // content hash of the registered circuit
}

func (r *rig) close() error {
	r.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.srv.Drain(ctx)
}

// batchBody renders batch i as a digest-only request naming the
// circuit by hash.
func batchBody(id string, vectors []string) ([]byte, error) {
	return json.Marshal(serve.BatchRequest{Circuit: id, Vectors: vectors, DigestOnly: true})
}

// post sends one request and returns the status and body.
func post(hc *http.Client, url string, body []byte, header http.Header) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// postBatch sends one batch and checks its digest.
func postBatch(hc *http.Client, base string, body []byte, header http.Header, want digest) error {
	status, raw, err := post(hc, base+"/v1/batches", body, header)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		return err
	}
	if br.Digest != want.String() {
		return fmt.Errorf("digest %s, direct engine %v", br.Digest, want)
	}
	return nil
}

// setupServe is one set-up: construct the server, register the circuit
// and run a first batch, which compiles the program and fills its pool.
func setupServe(in *serveInputs, wrap func(http.Handler) http.Handler) (*rig, error) {
	srv := serve.New(serveConfig())
	r := &rig{srv: srv, hs: httptest.NewServer(wrap(srv.Handler()))}
	hc := r.hs.Client()
	status, raw, err := post(hc, r.hs.URL+"/v1/circuits?name="+serveCircuit, []byte(in.bench), nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("registering %s: status %d: %s", serveCircuit, status, bytes.TrimSpace(raw))
	}
	var cr serve.CircuitResponse
	if err == nil {
		err = json.Unmarshal(raw, &cr)
	}
	var body []byte
	if err == nil {
		r.id = cr.Circuit
		body, err = batchBody(r.id, in.batches[0])
	}
	if err == nil {
		err = postBatch(hc, r.hs.URL, body, nil, in.wants[0])
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("serve set-up: %w", err)
	}
	return r, nil
}

func identity(h http.Handler) http.Handler { return h }

// loadResult is what the closed loop measured.
type loadResult struct {
	lat       []float64 // ms per batch, every tenant, in completion order
	batches   int
	traced    int       // batches that carried spans
	plainWin  []float64 // vectors per second of each untraced window
	tracedWin []float64 // vectors per second of each traced window
}

// load runs the closed loop: each tenant posts its next batch as soon as
// the previous answer arrives, until dur has passed and the pooled
// latency samples support p99. With tr non-nil, every other window is
// traced: batches carry span headers the handler middleware reads.
func load(r *rig, in *serveInputs, dur time.Duration, out *outcome, tr *tracer) (*loadResult, error) {
	bodies := make([][]byte, len(in.batches))
	for i, b := range in.batches {
		var err error
		if bodies[i], err = batchBody(r.id, b); err != nil {
			return nil, err
		}
	}
	type done struct {
		at     time.Duration
		lat    time.Duration
		err    error
		batch  int
		traced bool
	}
	var (
		mu      sync.Mutex
		results []done
		samples atomic.Int64
		wg      sync.WaitGroup
	)
	var tracedAt func(time.Duration) bool
	if tr != nil {
		tracedAt = tracedWindow
	}
	start := time.Now()
	for t := 0; t < serveTenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			hc := &http.Client{Transport: tp}
			tenant := http.Header{"X-Tenant-Id": {fmt.Sprintf("tenant-%d", t)}}
			for i := t; ; i += serveTenants {
				el := time.Since(start)
				if el > maxOverrun*dur || (el >= dur && samples.Load() >= p99Samples) {
					return
				}
				k := i % len(bodies)
				h := tenant
				traced := tracedAt != nil && tracedAt(el)
				var op, sid int
				if traced {
					op = tr.op()
					sid = tr.begin(op, 0, "http.client")
					h = tenant.Clone()
					h.Set("X-Perfbench-Op", strconv.Itoa(op))
					h.Set("X-Perfbench-Span", strconv.Itoa(sid))
				}
				t0 := time.Now()
				err := postBatch(hc, r.hs.URL, bodies[k], h, in.wants[k])
				lat := time.Since(t0)
				if traced {
					tr.end(sid)
				}
				samples.Add(1)
				mu.Lock()
				results = append(results, done{at: time.Since(start), lat: lat, err: err, batch: k, traced: traced})
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	lr := &loadResult{batches: len(results)}
	var ends []time.Duration
	for _, d := range results {
		out.check(d.err == nil, "batch %d: %v", d.batch, d.err)
		lr.lat = append(lr.lat, millis(d.lat))
		if d.traced {
			lr.traced++
		}
		if d.err == nil {
			ends = append(ends, d.at)
		}
	}
	lr.plainWin, lr.tracedWin = windowRates(ends, elapsed, serveBatchSize, tracedAt)
	return lr, nil
}

func serveWarm(cfg config) (*outcome, error) {
	in, err := newServeInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceServe(cfg, in)
	}
	out := newOutcome()
	open := func() (*rig, error) { return setupServe(in, identity) }
	r, setups, err := timedSetup(open)
	if err != nil {
		return nil, err
	}
	lr, err := load(r, in, cfg.dur, out, nil)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	more, err := repeatSetup(cfg.dur, open, (*rig).close)
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	p50, p99, err := latencies(lr.lat)
	if err != nil {
		return nil, err
	}
	out.metrics["throughput_vps"] = median(lr.plainWin)
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mib"] = rss
	out.metrics["latency_p50_ms"] = p50
	out.metrics["latency_p99_ms"] = p99
	out.note("%s, %d tenants closed-loop, %d-vector digest-only batches; %d latency samples (p99 has %d beyond it); %d throughput windows of %v; %s",
		serveCircuit, serveTenants, serveBatchSize, len(lr.lat), len(lr.lat)-rank(len(lr.lat), 990),
		len(lr.plainWin), window, fmtSetups(setups))
	return out, nil
}

// spanHandler records a serve.handler span for requests that carry the
// client's op and span ids.
func spanHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			op, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Op"))
			if op == 0 {
				h.ServeHTTP(w, r)
				return
			}
			parent, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
			id := tr.begin(op, parent, "serve.handler")
			h.ServeHTTP(w, r)
			tr.end(id)
		})
	}
}

// guardRounds is how many alternating guarded and plain rounds measure
// the guard's share of the batch path.
const guardRounds = 25

// guardShare applies the same batches on a guarded and a plain engine
// of the served configuration, per vector as the service does, and
// returns the share of the guarded time the guard adds.
func guardShare(in *serveInputs, out *outcome) (float64, error) {
	guarded, err := udsim.Open(in.circ, udsim.TechParallel, udsim.WithGuard(udsim.DefaultGuardPolicy()))
	if err != nil {
		return 0, err
	}
	defer guarded.(udsim.Closer).Close()
	plain, err := udsim.Open(in.circ, udsim.TechParallel)
	if err != nil {
		return 0, err
	}
	g := guarded.(*udsim.GuardedSim)
	ctx := context.Background()
	one := make([][]bool, 1)
	round := func(e udsim.Engine, apply func([]bool) error) time.Duration {
		outs := plainProbes(e.Circuit().Outputs)
		t0 := time.Now()
		for i, vecs := range in.vecs {
			err := e.ResetConsistent(nil)
			d := newDigester(len(outs))
			for _, v := range vecs {
				if err == nil {
					err = apply(v)
				}
				d.fold(e, outs)
			}
			out.check(err == nil && d.sum() == in.wants[i], "%s batch %d: %v (digest %v)", e.EngineName(), i, err, d.sum())
		}
		return time.Since(t0)
	}
	var gs, ps []float64
	for i := 0; i < guardRounds; i++ {
		gs = append(gs, round(g, func(v []bool) error { one[0] = v; return g.ApplyStreamCtx(ctx, one) }).Seconds())
		ps = append(ps, round(plain, plain.Apply).Seconds())
	}
	if f := g.LastFault(); f != nil {
		out.check(false, "guarded engine faulted: %v", f)
	}
	return 1 - median(ps)/median(gs), nil
}

// guardFaults sums udsim_guard_faults_total over the /metrics payload:
// every fault the guarded pool engines recorded, recovered or not.
func guardFaults(r *rig) (float64, error) {
	resp, err := r.hs.Client().Get(r.hs.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "udsim_guard_faults_total") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		total += v
	}
	return total, sc.Err()
}

// closureServeReps is how many alternating stage rebuilds and real
// Opens the serve closure takes medians over; each is milliseconds.
const closureServeReps = 15

// traceServe is serve-warm's traced run.
func traceServe(cfg config, in *serveInputs) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()

	// Closure: the served program is udsim.Open(c, TechParallel,
	// WithObserver, WithGuard); its only compile stage is parsim.Compile.
	var stages, opens []time.Duration
	var instrs int
	for i := 0; i < closureServeReps; i++ {
		o := newOpener(tr, serveCircuit)
		c, err := o.parse(serveCircuit, in.bench)
		var s *parsim.Sim
		if err == nil {
			err = o.stage("parsim.compile", func() (err error) {
				s, err = parsim.Compile(c, parsim.Config{})
				return err
			})
		}
		o.done()
		if err != nil {
			return nil, err
		}
		instrs = s.CodeSize()
		stages = append(stages, o.stages)
		t0 := time.Now()
		e, err := udsim.Open(c, udsim.TechParallel, udsim.WithGuard(udsim.DefaultGuardPolicy()))
		opens = append(opens, time.Since(t0))
		if err != nil {
			return nil, err
		}
		e.(udsim.Closer).Close()
	}
	cl := closure{stages: medianDuration(stages), open: medianDuration(opens)}
	out.check(cl.ok(), "closure: %v", cl)
	out.note("closure over %d alternating builds and real Opens: %v", closureServeReps, cl)
	out.metrics["trace.closure_gap"] = cl.gap()
	out.metrics["bench85.parse_s"] = medianDuration(tr.durations("bench85.parse")).Seconds()
	out.metrics["parsim.compile_s"] = cl.stages.Seconds()
	out.metrics["parsim.instrs"] = float64(instrs)

	r, err := setupServe(in, spanHandler(tr))
	if err != nil {
		return nil, err
	}
	defer r.close()
	before := r.srv.Stats()
	mem := markMem()
	lr, err := load(r, in, cfg.dur, out, tr)
	if err != nil {
		return nil, err
	}
	md := mem.since()
	after := r.srv.Stats()
	faults, err := guardFaults(r)
	if err != nil {
		return nil, err
	}
	share, err := guardShare(in, out)
	if err != nil {
		return nil, err
	}

	meanMS := func(ds []time.Duration) float64 {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return millis(sum) / float64(len(ds))
	}
	handler := meanMS(tr.durations("serve.handler"))
	client := meanMS(tr.durations("http.client"))
	completed := after.Completed - before.Completed
	batch := millis(time.Duration(after.BatchNanos-before.BatchNanos)) / float64(completed)
	out.metrics["serve.handler_ms"] = handler
	out.metrics["serve.batch_ms"] = batch
	out.metrics["serve.overhead_ms"] = handler - batch
	out.metrics["http.client_ms"] = client - handler
	out.metrics["serve.compile_s"] = time.Duration(after.CompileNanos).Seconds()
	out.metrics["serve.pool_waits"] = float64(after.PoolWaits - before.PoolWaits)
	out.metrics["serve.compiles"] = float64(after.Compiles)
	out.metrics["serve.rejected"] = float64(after.Rejected())
	out.metrics["resilience.faults"] = faults
	out.metrics["resilience.guard_share"] = share
	out.metrics["runtime.gc_cycles"] = float64(md.gcCycles)
	out.metrics["runtime.gc_pause_ms"] = millis(md.gcPause)
	out.metrics["runtime.allocs_per_batch"] = float64(md.mallocs) / float64(lr.batches)
	out.metrics["runtime.allocs_per_vector"] = float64(md.mallocs) / float64(lr.batches*serveBatchSize)
	out.metrics["obs.overhead_share"] = 1 - median(lr.tracedWin)/median(lr.plainWin)
	out.note("%d batches (%d traced), %d untraced and %d traced windows; batch_ms is the service's mean, handler and client means come from the traced batches",
		lr.batches, lr.traced, len(lr.plainWin), len(lr.tracedWin))

	ncl, err := nativeLayer(in, cfg.seed, tr, out)
	if err != nil {
		return nil, err
	}
	out.check(ncl.ok(), "native closure: %v", ncl)
	out.note("native closure over %d alternating builds and real Opens: %v", closureReps, ncl)
	// trace.closure_gap is the run's worst gap.
	if math.Abs(ncl.gap()) > math.Abs(cl.gap()) {
		out.metrics["trace.closure_gap"] = ncl.gap()
	}
	if cfg.spans != "" {
		path, err := tr.write(cfg.spans, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.note("spans written to %s", path)
	}
	return out, nil
}

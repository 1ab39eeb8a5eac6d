// Package serve is the multi-tenant simulation service: a long-running
// stdlib net/http surface over the compiled engines that finally turns
// compile-once/simulate-many into an operational property. Tenants POST
// .bench netlists and stream vector batches; the service compiles each
// (circuit, technique, options) configuration exactly once (an LRU
// compiled-program cache with a byte budget and singleflight), serves
// batches from a bounded pool of Clone()d engines per program, meters
// tenants with vector-denominated token buckets, sheds load with
// 429 + Retry-After when the bounded batch queue fills, honors request
// deadlines through the guarded supervisor, exports internal/obs
// counters plus its own udsim_serve_* families on /metrics, and drains
// gracefully — accepted batches always finish.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udsim"
	"udsim/internal/obs"
)

// Config tunes the service. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// CacheBytes is the compiled-program cache budget (estimate-based;
	// a single program may exceed it). Default 256 MiB.
	CacheBytes int64
	// PoolBound is the number of pooled engines per cached program —
	// the per-program concurrency bound. Default 4.
	PoolBound int
	// QueueDepth bounds batches admitted and not yet finished across
	// the whole server; beyond it requests get 429 + Retry-After.
	// Default 64.
	QueueDepth int
	// TenantRate is the per-tenant sustained quota in vectors/second
	// (0 disables quotas); TenantBurst is the bucket size (default:
	// one second of rate).
	TenantRate  float64
	TenantBurst float64
	// Deadline bounds one batch's execution (0 = none). Enforced
	// through the guarded supervisor when Guard is set, and by
	// per-vector context checks otherwise.
	Deadline time.Duration
	// Guard builds every pooled engine under the guarded supervisor
	// with GuardPolicy (zero value: DefaultGuardPolicy).
	Guard       bool
	GuardPolicy udsim.GuardPolicy
	// MaxVectors bounds one batch (default 65536); MaxBodyBytes bounds
	// a request body (default 8 MiB); MaxCircuits bounds the netlist
	// registry (default 1024).
	MaxVectors   int
	MaxBodyBytes int64
	MaxCircuits  int
}

func (c Config) withDefaults() Config {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.PoolBound <= 0 {
		c.PoolBound = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Guard && c.GuardPolicy == (udsim.GuardPolicy{}) {
		c.GuardPolicy = udsim.DefaultGuardPolicy()
	}
	if c.MaxVectors <= 0 {
		c.MaxVectors = 65536
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxCircuits <= 0 {
		c.MaxCircuits = 1024
	}
	return c
}

// Server is the service. Create with New, mount Handler on an
// http.Server, and call Drain before exit.
type Server struct {
	cfg    Config
	m      Metrics
	cache  *cache
	quotas *quotas
	reg    *registry
	sem    chan struct{}

	// draining is set once by Drain under drainMu's write lock; admission
	// checks it and joins wg under the read lock, so no batch joins the
	// group after Drain has started waiting on it.
	draining atomic.Bool
	drainMu  sync.RWMutex
	wg       sync.WaitGroup
	mux      *http.ServeMux
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		quotas: newQuotas(cfg.TenantRate, cfg.TenantBurst),
		reg:    newRegistry(cfg.MaxCircuits),
		sem:    make(chan struct{}, cfg.QueueDepth),
	}
	s.cache = newCache(cfg.CacheBytes, &s.m)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/circuits", s.handleCircuits)
	s.mux.HandleFunc("/v1/batches", s.handleBatches)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats reports the service counters (tests and the load harness).
func (s *Server) Stats() Stats {
	st := s.m.stats()
	st.CachedPrograms, st.CacheBytes, _, st.PoolPeak = func() (int, int64, []programStat, int64) {
		return s.cache.stats()
	}()
	return st
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting batches, waits for every accepted batch to
// finish (bounded by ctx) and then closes the compiled-program cache,
// releasing all pooled engines and their workers. Call after (or
// concurrently with) http.Server.Shutdown; accepted batches are never
// lost — they complete and their responses are written before Drain
// returns.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %d batches still in flight: %w",
			s.m.queueDepth.Load(), ctx.Err())
	}
	s.cache.close()
	return nil
}

// ---- request/response bodies ----

// BatchOptions selects the compile configuration of a batch — together
// with the circuit hash and technique it forms the compiled-program
// cache key, so two tenants naming the same configuration share one
// compile.
type BatchOptions struct {
	// Exec is the execution strategy ("sequential", "activity-gated",
	// "vector-batch", "auto"; default sequential; any other value is
	// refused) and Workers the worker count of vector-batch and auto (0 =
	// GOMAXPROCS; the other strategies ignore it).
	Exec    string `json:"exec,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// WordBits is the parallel technique's logical word width.
	WordBits int `json:"wordbits,omitempty"`
	// DeadStore strips provably-dead instructions after compilation.
	DeadStore bool `json:"deadstore,omitempty"`
	// Resub runs the proof-carrying netlist resubstitution pass first.
	Resub bool `json:"resub,omitempty"`
}

// canonical renders the options as the cache-key fragment, the same for
// equivalent configurations: the strategy by its canonical name (empty
// meaning sequential), and the worker count only under vector-batch and
// auto, the strategies that read it. An unknown or retired strategy is
// an error naming the value.
func (o BatchOptions) canonical() (string, error) {
	strat := udsim.ExecSequential
	if o.Exec != "" {
		var err error
		if strat, err = udsim.ParseExecStrategy(o.Exec); err != nil {
			return "", err
		}
	}
	workers := 0
	if strat == udsim.ExecVectorBatch || strat == udsim.ExecAuto {
		workers = o.Workers
	}
	return fmt.Sprintf("exec=%s,workers=%d,wordbits=%d,deadstore=%t,resub=%t",
		strat, workers, o.WordBits, o.DeadStore, o.Resub), nil
}

// BatchRequest is the body of POST /v1/batches. Exactly one of
// Circuit (a registered content hash), Bench (an inline netlist) or
// Gen (a synthesized ISCAS-85 profile name) selects the circuit.
type BatchRequest struct {
	Circuit   string       `json:"circuit,omitempty"`
	Bench     string       `json:"bench,omitempty"`
	Gen       string       `json:"gen,omitempty"`
	Technique string       `json:"technique,omitempty"` // default "parallel"
	Options   BatchOptions `json:"options,omitempty"`
	// Vectors are the input vectors, one "0101…" string per vector,
	// one character per primary input in circuit order.
	Vectors []string `json:"vectors"`
	// DigestOnly replaces the per-vector output strings with one FNV-1a
	// digest over them — the cheap bit-identity check for load clients.
	DigestOnly bool `json:"digest_only,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batches.
type BatchResponse struct {
	Circuit string `json:"circuit"`
	Engine  string `json:"engine"`
	// Cache is "hit" when the compiled program was already resident
	// (zero compiles served this batch) and "miss" otherwise.
	Cache   string   `json:"cache"`
	Vectors int      `json:"vectors"`
	Outputs []string `json:"outputs,omitempty"`
	Digest  string   `json:"digest,omitempty"`
}

// CircuitResponse is the body of a successful POST /v1/circuits.
type CircuitResponse struct {
	Circuit string `json:"circuit"`
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func retryAfter(w http.ResponseWriter, d time.Duration) {
	if d > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((d+time.Second-1)/time.Second)))
	}
}

// handleCircuits registers a netlist: POST with a .bench body, or with
// ?gen=c432 to synthesize a benchmark profile server-side.
func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a .bench netlist (or ?gen=NAME)")
		return
	}
	var rc *regCircuit
	if gen := r.URL.Query().Get("gen"); gen != "" {
		var err error
		rc, err = s.resolveGen(gen)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			name = "posted"
		}
		c, canon, id, err := canonicalize(string(body), name)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rc = s.reg.add(c, canon, id)
	}
	writeJSON(w, http.StatusOK, CircuitResponse{
		Circuit: rc.id,
		Name:    rc.circ.Name,
		Inputs:  len(rc.circ.Inputs),
		Outputs: len(rc.circ.Outputs),
		Gates:   rc.circ.NumGates(),
	})
}

// resolveGen synthesizes (and registers) an ISCAS-85 profile circuit.
func (s *Server) resolveGen(name string) (*regCircuit, error) {
	c, err := udsim.ISCAS85(name)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := udsim.WriteBench(&b, c); err != nil {
		return nil, err
	}
	cc, canon, id, err := canonicalize(b.String(), c.Name)
	if err != nil {
		return nil, err
	}
	return s.reg.add(cc, canon, id), nil
}

// resolveCircuit maps a batch request to a registered circuit.
func (s *Server) resolveCircuit(br *BatchRequest) (*regCircuit, int, error) {
	set := 0
	for _, f := range []string{br.Circuit, br.Bench, br.Gen} {
		if f != "" {
			set++
		}
	}
	if set != 1 {
		return nil, http.StatusBadRequest,
			fmt.Errorf("serve: exactly one of circuit, bench or gen must be set")
	}
	switch {
	case br.Circuit != "":
		rc, err := s.reg.lookup(br.Circuit)
		if err != nil {
			return nil, http.StatusNotFound, err
		}
		return rc, 0, nil
	case br.Bench != "":
		c, canon, id, err := canonicalize(br.Bench, "posted")
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return s.reg.add(c, canon, id), 0, nil
	default:
		rc, err := s.resolveGen(br.Gen)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		return rc, 0, nil
	}
}

// handleBatches runs one vector batch: admission (drain, quota, queue),
// program lookup/compile, engine checkout, simulation, response.
func (s *Server) handleBatches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a batch")
		return
	}
	// Check the flag and join the in-flight group under one read lock:
	// Drain sets the flag under the write lock before waiting on the
	// group, so a batch that passes the check here is waited for, and no
	// batch joins the group once Drain may be waiting on it.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.m.rejectedDraining.Add(1)
		retryAfter(w, 5*time.Second)
		writeError(w, http.StatusServiceUnavailable, "serve: draining")
		return
	}
	s.wg.Add(1)
	s.drainMu.RUnlock()
	defer s.wg.Done()

	var br BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	// A field the server does not know (a typo, or an option it no
	// longer has) would otherwise be dropped silently and the batch run
	// under a different configuration than the client asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&br); err != nil {
		writeError(w, http.StatusBadRequest, "decoding batch: %v", err)
		return
	}
	if len(br.Vectors) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no vectors")
		return
	}
	if len(br.Vectors) > s.cfg.MaxVectors {
		writeError(w, http.StatusBadRequest, "batch of %d vectors exceeds the %d limit",
			len(br.Vectors), s.cfg.MaxVectors)
		return
	}

	tenant := r.Header.Get("X-Tenant-ID")
	if tenant == "" {
		tenant = "anonymous"
	}
	if ok, wait := s.quotas.take(tenant, len(br.Vectors)); !ok {
		s.m.rejectedQuota.Add(1)
		retryAfter(w, wait)
		if wait == 0 {
			writeError(w, http.StatusTooManyRequests,
				"batch of %d vectors exceeds tenant burst; split it", len(br.Vectors))
		} else {
			writeError(w, http.StatusTooManyRequests, "tenant %s over quota", tenant)
		}
		return
	}

	// Bounded batch queue: admission is non-blocking — a full queue is
	// backpressure the client must pace on, not a place to park work.
	select {
	case s.sem <- struct{}{}:
	default:
		s.m.rejectedQueue.Add(1)
		retryAfter(w, time.Second)
		writeError(w, http.StatusTooManyRequests, "batch queue full")
		return
	}
	defer func() { <-s.sem }()
	s.m.accepted.Add(1)
	s.m.queueDepth.Add(1)
	defer s.m.queueDepth.Add(-1)

	ctx := r.Context()
	if s.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}

	rc, status, err := s.resolveCircuit(&br)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	if br.Technique == "" {
		br.Technique = "parallel"
	}
	for _, v := range br.Vectors {
		if len(v) != len(rc.circ.Inputs) {
			writeError(w, http.StatusBadRequest,
				"vector width %d, circuit %s has %d inputs", len(v), rc.id[:12], len(rc.circ.Inputs))
			return
		}
		if i := strings.IndexFunc(v, func(r rune) bool { return r != '0' && r != '1' }); i >= 0 {
			writeError(w, http.StatusBadRequest, "vector %q is not a 0/1 string", v)
			return
		}
	}

	opts, err := br.Options.canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := rc.id + "|" + br.Technique + "|" + opts
	prog, hit, err := s.getProgram(ctx, key, rc, br.Technique, br.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer s.cache.release(prog)

	eng, err := prog.acquire(ctx, &s.m)
	if err != nil {
		s.m.deadlineFailures.Add(1)
		writeError(w, http.StatusGatewayTimeout, "waiting for an engine: %v", err)
		return
	}
	defer prog.releaseEngine(eng, &s.m)

	t0 := time.Now()
	resp, err := runBatch(ctx, eng, rc, &br)
	s.m.batchNanos.Add(int64(time.Since(t0)))
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || isDeadlineFault(err) {
			s.m.deadlineFailures.Add(1)
			writeError(w, http.StatusGatewayTimeout, "%v", err)
			return
		}
		if errors.Is(err, context.Canceled) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp.Cache = "miss"
	if hit {
		resp.Cache = "hit"
	}
	s.m.vectors.Add(int64(resp.Vectors))
	s.m.completed.Add(1)
	if s.draining.Load() {
		s.m.drainCompleted.Add(1)
	}
	prog.batches.Add(1)
	prog.vectors.Add(int64(resp.Vectors))
	writeJSON(w, http.StatusOK, resp)
}

// isDeadlineFault reports whether err is a guarded-engine deadline or
// cancellation fault.
func isDeadlineFault(err error) bool {
	f, ok := udsim.AsEngineFault(err)
	return ok && (f.Kind == udsim.FaultDeadline || f.Kind == udsim.FaultCanceled)
}

// getProgram resolves the cache entry for key, compiling on a miss.
func (s *Server) getProgram(ctx context.Context, key string, rc *regCircuit, techName string, bo BatchOptions) (*program, bool, error) {
	return s.cache.get(ctx, key, func() (*program, error) {
		return s.buildProgram(key, rc, techName, bo)
	})
}

// buildProgram compiles one configuration and eagerly fills its engine
// pool — all Clone() calls and observer attachments happen here, before
// the entry becomes visible, so the shared observer's counters are
// never reset under traffic.
func (s *Server) buildProgram(key string, rc *regCircuit, techName string, bo BatchOptions) (*program, error) {
	tech, topts, err := udsim.ParseTechnique(techName)
	if err != nil {
		return nil, err
	}
	if tech != udsim.TechParallel && tech != udsim.TechPCSet {
		return nil, fmt.Errorf("serve: technique %q is not poolable; use a compiled technique (parallel…, pcset)", techName)
	}
	if bo.WordBits != 0 {
		topts = append(topts, udsim.WithWordBits(bo.WordBits))
	}
	if bo.Exec != "" {
		strat, err := udsim.ParseExecStrategy(bo.Exec)
		if err != nil {
			return nil, err
		}
		topts = append(topts, udsim.WithExec(strat, bo.Workers))
	}
	if bo.DeadStore {
		topts = append(topts, udsim.WithDeadStoreElimination())
	}
	if bo.Resub {
		topts = append(topts, udsim.WithResubstitution())
	}
	ob := obs.New(obs.Config{})
	topts = append(topts, udsim.WithObserver(ob))
	if s.cfg.Guard {
		topts = append(topts, udsim.WithGuard(s.cfg.GuardPolicy))
	}
	tmpl, err := udsim.Open(rc.circ, tech, topts...)
	if err != nil {
		return nil, err
	}
	cl, ok := tmpl.(udsim.Cloner)
	if !ok {
		if c, k := tmpl.(udsim.Closer); k {
			c.Close()
		}
		return nil, fmt.Errorf("serve: engine %s is not a Cloner", tmpl.EngineName())
	}
	p := &program{
		key:    key,
		engine: tmpl.EngineName(),
		circ:   rc.circ,
		tmpl:   tmpl,
		ob:     ob,
		bound:  s.cfg.PoolBound,
		pool:   make(chan udsim.Engine, s.cfg.PoolBound),
	}
	for i := 0; i < s.cfg.PoolBound; i++ {
		e, err := cl.Clone()
		if err != nil {
			p.destroy()
			return nil, err
		}
		p.pool <- e
	}
	// Byte estimate: shared compiled code once (every form the engine
	// holds), private mutable state per pool member (template included),
	// plus the canonical netlist text held by the registry entry.
	var code int64
	if in, ok := tmpl.(udsim.Introspector); ok {
		code = in.CodeBytes()
	}
	p.bytes = code +
		int64(s.cfg.PoolBound+1)*int64(len(rc.circ.Nets))*16 +
		int64(len(rc.bench))
	return p, nil
}

// runBatch simulates the vectors on a checked-out engine: every batch
// starts from the all-zeros consistent state, so batches are
// independent and reproducible regardless of which pool member serves
// them.
func runBatch(ctx context.Context, eng udsim.Engine, rc *regCircuit, br *BatchRequest) (*BatchResponse, error) {
	if err := eng.ResetConsistent(nil); err != nil {
		return nil, err
	}
	g, guarded := eng.(*udsim.GuardedSim)
	one := make([][]bool, 1)
	vec := make([]bool, len(rc.circ.Inputs))
	outs := rc.circ.Outputs
	var outputs []string
	if !br.DigestOnly {
		outputs = make([]string, 0, len(br.Vectors))
	}
	digest := fnv.New64a()
	buf := make([]byte, len(outs))
	for _, vs := range br.Vectors {
		for i := 0; i < len(vs); i++ {
			switch vs[i] {
			case '0':
				vec[i] = false
			case '1':
				vec[i] = true
			default:
				return nil, fmt.Errorf("serve: vector %q is not a 0/1 string", vs)
			}
		}
		if guarded {
			one[0] = vec
			if err := g.ApplyStreamCtx(ctx, one); err != nil {
				return nil, err
			}
		} else {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := eng.Apply(vec); err != nil {
				return nil, err
			}
		}
		for i, o := range outs {
			if eng.Final(o) {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		digest.Write(buf)
		if !br.DigestOnly {
			outputs = append(outputs, string(buf))
		}
	}
	resp := &BatchResponse{
		Circuit: rc.id,
		Engine:  eng.EngineName(),
		Vectors: len(br.Vectors),
		Outputs: outputs,
	}
	if br.DigestOnly {
		resp.Digest = fmt.Sprintf("%016x", digest.Sum64())
	}
	return resp, nil
}

// handleMetrics serves the Prometheus text exposition: the
// udsim_serve_* service families followed by every cached program's
// internal/obs counter snapshot. The whole payload passes
// obs.ValidateText.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.WriteMetrics(w); err != nil {
		// Headers are gone; all we can do is abort the body.
		return
	}
}

// WriteMetrics renders the full /metrics payload to w.
func (s *Server) WriteMetrics(w io.Writer) error {
	programs, bytes, progs, _ := s.cache.stats()
	if err := s.m.writeText(w, programs, bytes, progs); err != nil {
		return err
	}
	for _, snap := range s.cache.snapshots() {
		if err := snap.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

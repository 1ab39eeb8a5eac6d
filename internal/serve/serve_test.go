package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"udsim"
	"udsim/internal/vectors"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, hs
}

// post sends one JSON request and decodes the response body.
func post(t *testing.T, hs *httptest.Server, path, tenant string, req any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, hs.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		hr.Header.Set("X-Tenant-ID", tenant)
	}
	resp, err := hs.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp
}

// randVectors renders a seeded random stream as 0/1 strings.
func randVectors(t *testing.T, c *udsim.Circuit, n int, seed int64) []string {
	t.Helper()
	vs := vectors.Random(n, len(c.Inputs), seed)
	out := make([]string, n)
	for i, v := range vs.Bits {
		b := make([]byte, len(v))
		for j, bit := range v {
			if bit {
				b[j] = '1'
			} else {
				b[j] = '0'
			}
		}
		out[i] = string(b)
	}
	return out
}

// directOutputs runs the same vectors on an in-process engine.
func directOutputs(t *testing.T, c *udsim.Circuit, tech udsim.Technique, vecs []string) []string {
	t.Helper()
	e, err := udsim.Open(c, tech)
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := e.(udsim.Closer); ok {
		defer cl.Close()
	}
	if err := e.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(vecs))
	vec := make([]bool, len(c.Inputs))
	buf := make([]byte, len(c.Outputs))
	for i, vs := range vecs {
		for j := range vs {
			vec[j] = vs[j] == '1'
		}
		if err := e.Apply(vec); err != nil {
			t.Fatal(err)
		}
		for j, o := range c.Outputs {
			if e.Final(o) {
				buf[j] = '1'
			} else {
				buf[j] = '0'
			}
		}
		out[i] = string(buf)
	}
	return out
}

// TestBitIdentityAllCircuits posts a batch for every benchmark profile
// and technique and asserts the streamed outputs are bit-identical to a
// direct engine run.
func TestBitIdentityAllCircuits(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	for _, name := range udsim.ISCAS85Names() {
		c, err := udsim.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		vecs := randVectors(t, c, 32, 1990)
		for _, tech := range []struct {
			name string
			id   udsim.Technique
		}{{"parallel", udsim.TechParallel}, {"pcset", udsim.TechPCSet}} {
			var br BatchResponse
			resp := post(t, hs, "/v1/batches", "", BatchRequest{
				Gen: name, Technique: tech.name, Vectors: vecs,
			}, &br)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: %s", name, tech.name, resp.Status)
			}
			want := directOutputs(t, c, tech.id, vecs)
			for i := range want {
				if br.Outputs[i] != want[i] {
					t.Fatalf("%s/%s vector %d: served %s, direct %s",
						name, tech.name, i, br.Outputs[i], want[i])
				}
			}
		}
	}
	if st := srv.Stats(); st.Compiles != int64(2*len(udsim.ISCAS85Names())) {
		t.Errorf("compiles = %d, want %d", st.Compiles, 2*len(udsim.ISCAS85Names()))
	}
}

// TestCacheCompileOnce is the compile-once oracle: many concurrent
// clients racing on one cold configuration produce exactly one compile,
// and every later request is a cache hit.
func TestCacheCompileOnce(t *testing.T) {
	srv, hs := newTestServer(t, Config{PoolBound: 2})
	c, err := udsim.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 8, 7)
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			var br BatchResponse
			resp := post(t, hs, "/v1/batches", tenant, BatchRequest{Gen: "c432", Vectors: vecs}, &br)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: %s", tenant, resp.Status)
			}
		}(fmt.Sprintf("t%d", i))
	}
	wg.Wait()
	st := srv.Stats()
	if st.Compiles != 1 {
		t.Fatalf("compiles = %d after %d racing clients, want exactly 1", st.Compiles, clients)
	}
	// A warm request must be a hit, both in the counter and the response.
	hitsBefore := st.CacheHits
	var br BatchResponse
	post(t, hs, "/v1/batches", "warm", BatchRequest{Gen: "c432", Vectors: vecs}, &br)
	if br.Cache != "hit" {
		t.Errorf("warm request reported cache=%q", br.Cache)
	}
	if st = srv.Stats(); st.CacheHits != hitsBefore+1 {
		t.Errorf("cache hits %d -> %d, want +1", hitsBefore, st.CacheHits)
	}
	if st.Compiles != 1 {
		t.Errorf("warm request recompiled: compiles = %d", st.Compiles)
	}
}

// TestCacheKeySplitsByConfiguration asserts distinct techniques and
// option sets compile separately while identical netlists posted under
// different names share one program.
func TestCacheKeySplitsByConfiguration(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	c, err := udsim.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	var render strings.Builder
	if err := udsim.WriteBench(&render, c); err != nil {
		t.Fatal(err)
	}
	bench := render.String()
	vecs := randVectors(t, c, 4, 3)

	post(t, hs, "/v1/batches", "", BatchRequest{Bench: bench, Vectors: vecs}, nil)
	post(t, hs, "/v1/batches", "", BatchRequest{Bench: bench, Technique: "pcset", Vectors: vecs}, nil)
	post(t, hs, "/v1/batches", "", BatchRequest{Bench: bench, Options: BatchOptions{Exec: "activity-gated", Workers: 2}, Vectors: vecs}, nil)
	if st := srv.Stats(); st.Compiles != 3 {
		t.Fatalf("3 configurations compiled %d programs", st.Compiles)
	}
	// The same netlist re-rendered under another name must hit: the key
	// is the content hash, not the display name.
	renamed := strings.ReplaceAll(bench, "c432", "other_name")
	var br BatchResponse
	post(t, hs, "/v1/batches", "", BatchRequest{Bench: renamed, Vectors: vecs}, &br)
	if br.Cache != "hit" {
		t.Errorf("renamed netlist missed the cache (cache=%q)", br.Cache)
	}
	if st := srv.Stats(); st.Compiles != 3 {
		t.Errorf("renamed netlist recompiled: compiles = %d", st.Compiles)
	}
}

// TestCacheKeyMergesEquivalentOptions: option spellings that name the
// same engine configuration share one compile. Six batches on c432 —
// the default, "sequential", "seq" at 4 workers, "activity-gated" at 2,
// "gated" at 1 and "activity-gated" alone — are two configurations, since
// only vector-batch and auto read the worker count; vector-batch at 2 and
// 4 workers are two more.
func TestCacheKeyMergesEquivalentOptions(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	c, err := udsim.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 4, 5)
	batch := func(o BatchOptions) {
		t.Helper()
		post(t, hs, "/v1/batches", "", BatchRequest{Gen: "c432", Options: o, Vectors: vecs}, nil)
	}
	for _, o := range []BatchOptions{
		{},
		{Exec: "sequential"},
		{Exec: "seq", Workers: 4},
		{Exec: "activity-gated", Workers: 2},
		{Exec: "gated", Workers: 1},
		{Exec: "activity-gated"},
	} {
		batch(o)
	}
	if st := srv.Stats(); st.Compiles != 2 {
		t.Fatalf("two configurations compiled %d programs", st.Compiles)
	}
	batch(BatchOptions{Exec: "vector-batch", Workers: 2})
	batch(BatchOptions{Exec: "batch", Workers: 4})
	if st := srv.Stats(); st.Compiles != 4 {
		t.Fatalf("vector-batch at 2 and 4 workers: %d programs in all, want 4", st.Compiles)
	}
}

// TestPoolBound floods one program with concurrent batches and asserts
// the pool's high-water mark never exceeds the configured bound.
func TestPoolBound(t *testing.T) {
	const bound = 2
	srv, hs := newTestServer(t, Config{PoolBound: bound, QueueDepth: 64})
	c, err := udsim.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 64, 11)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				post(t, hs, "/v1/batches", "", BatchRequest{Gen: "c880", Vectors: vecs, DigestOnly: true}, nil)
			}
		}()
	}
	wg.Wait()
	st := srv.Stats()
	if st.PoolPeak > bound {
		t.Fatalf("pool peak %d exceeded bound %d", st.PoolPeak, bound)
	}
	if st.PoolInUse != 0 {
		t.Errorf("pool in use %d after all batches done", st.PoolInUse)
	}
	if st.Completed != 48 {
		t.Errorf("completed %d of 48 batches (rejected %d)", st.Completed, st.Rejected())
	}
}

// TestQuotaRejects asserts the token bucket 429s an over-quota tenant
// with a Retry-After, never-fits batches get Retry-After 0/absent, and
// tenants are metered independently.
func TestQuotaRejects(t *testing.T) {
	srv, hs := newTestServer(t, Config{TenantRate: 64, TenantBurst: 64})
	c, err := udsim.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 48, 5)
	if resp := post(t, hs, "/v1/batches", "alice", BatchRequest{Gen: "c432", Vectors: vecs}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch: %s", resp.Status)
	}
	resp := post(t, hs, "/v1/batches", "alice", BatchRequest{Gen: "c432", Vectors: vecs}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// An independent tenant is unaffected.
	if resp := post(t, hs, "/v1/batches", "bob", BatchRequest{Gen: "c432", Vectors: vecs}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's batch: %s", resp.Status)
	}
	// A batch above the burst can never fit: no Retry-After.
	big := randVectors(t, c, 65, 5)
	resp = post(t, hs, "/v1/batches", "carol", BatchRequest{Gen: "c432", Vectors: big}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("never-fits batch: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("never-fits batch got Retry-After %q, want none", ra)
	}
	if st := srv.Stats(); st.RejectedQuota != 2 {
		t.Errorf("rejected_quota = %d, want 2", st.RejectedQuota)
	}
}

// TestQueueBackpressure fills the bounded queue and asserts the excess
// is shed with 429 + Retry-After rather than parked.
func TestQueueBackpressure(t *testing.T) {
	srv, hs := newTestServer(t, Config{QueueDepth: 1, PoolBound: 1})
	c, err := udsim.ISCAS85("c1908")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 512, 13)
	const clients = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok, shed int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, hs, "/v1/batches", "", BatchRequest{Gen: "c1908", Vectors: vecs, DigestOnly: true}, nil)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("queue-full 429 without Retry-After")
				}
			default:
				t.Errorf("unexpected status %s", resp.Status)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no batch got through the queue")
	}
	st := srv.Stats()
	if int(st.Completed) != ok {
		t.Errorf("completed %d != ok responses %d", st.Completed, ok)
	}
	if shed > 0 && st.RejectedQueue == 0 {
		t.Errorf("shed %d clients but rejected_queue = 0", shed)
	}
}

// TestDrainZeroLoss races Drain against a stream of accepted batches:
// every batch that got a 2xx admission must complete with a full
// response, and post-drain requests get 503.
func TestDrainZeroLoss(t *testing.T) {
	srv := New(Config{QueueDepth: 64, PoolBound: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c, err := udsim.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 128, 17)
	body, _ := json.Marshal(BatchRequest{Gen: "c880", Vectors: vecs, DigestOnly: true})

	const clients = 8
	var (
		wg                  sync.WaitGroup
		mu                  sync.Mutex
		accepted, completed int
	)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 16; j++ {
				resp, err := hs.Client().Post(hs.URL+"/v1/batches", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var br BatchResponse
				derr := json.NewDecoder(resp.Body).Decode(&br)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return // draining: stop this client
				}
				if resp.StatusCode != http.StatusOK {
					continue // shed by quota/queue — not accepted
				}
				mu.Lock()
				accepted++
				if derr == nil && br.Digest != "" {
					completed++
				}
				mu.Unlock()
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let traffic build
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if accepted == 0 {
		t.Fatal("no batch was accepted before the drain")
	}
	if completed != accepted {
		t.Fatalf("drain lost batches: %d accepted, %d completed", accepted, completed)
	}
	st := srv.Stats()
	if st.Completed != int64(accepted) {
		t.Errorf("server counted %d completed, clients saw %d", st.Completed, accepted)
	}
	// Post-drain requests are refused with 503.
	resp, err := hs.Client().Post(hs.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain batch: %s, want 503", resp.Status)
	}
}

// TestEvictionKeepsCheckedOutEnginesAlive squeezes the cache budget so
// every new program evicts the previous one and asserts responses stay
// correct (the refcount keeps in-use engines alive past eviction).
func TestEvictionKeepsCheckedOutEnginesAlive(t *testing.T) {
	srv, hs := newTestServer(t, Config{CacheBytes: 1}) // everything over budget
	names := []string{"c432", "c499", "c880", "c432"}
	for _, name := range names {
		c, err := udsim.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		vecs := randVectors(t, c, 8, 23)
		var br BatchResponse
		resp := post(t, hs, "/v1/batches", "", BatchRequest{Gen: name, Vectors: vecs}, &br)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", name, resp.Status)
		}
		want := directOutputs(t, c, udsim.TechParallel, vecs)
		for i := range want {
			if br.Outputs[i] != want[i] {
				t.Fatalf("%s vector %d diverged after eviction churn", name, i)
			}
		}
	}
	st := srv.Stats()
	if st.CacheEvictions == 0 {
		t.Error("budget of 1 byte evicted nothing")
	}
	// c432 was evicted and recompiled: 4 compiles for 4 requests.
	if st.Compiles != 4 {
		t.Errorf("compiles = %d, want 4 (every request cold under a 1-byte budget)", st.Compiles)
	}
}

// TestCircuitRegistryRoundTrip posts a netlist, simulates by returned
// ID, and asserts unknown IDs 404.
func TestCircuitRegistryRoundTrip(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	c, err := udsim.ISCAS85("c499")
	if err != nil {
		t.Fatal(err)
	}
	var render strings.Builder
	if err := udsim.WriteBench(&render, c); err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/circuits", "text/plain", strings.NewReader(render.String()))
	if err != nil {
		t.Fatal(err)
	}
	var cr CircuitResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", resp.Status)
	}
	if cr.Inputs != len(c.Inputs) || cr.Outputs != len(c.Outputs) {
		t.Fatalf("registered shape %d/%d, want %d/%d", cr.Inputs, cr.Outputs, len(c.Inputs), len(c.Outputs))
	}
	vecs := randVectors(t, c, 8, 29)
	var br BatchResponse
	if r := post(t, hs, "/v1/batches", "", BatchRequest{Circuit: cr.Circuit, Vectors: vecs}, &br); r.StatusCode != http.StatusOK {
		t.Fatalf("batch by ID: %s", r.Status)
	}
	want := directOutputs(t, c, udsim.TechParallel, vecs)
	for i := range want {
		if br.Outputs[i] != want[i] {
			t.Fatalf("vector %d diverged via registry path", i)
		}
	}
	if r := post(t, hs, "/v1/batches", "", BatchRequest{Circuit: "deadbeef", Vectors: vecs}, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown circuit: %s, want 404", r.Status)
	}
}

// TestGuardedDeadline runs under the guarded supervisor with a deadline
// tight enough to trip and asserts the batch 504s instead of hanging.
func TestGuardedDeadline(t *testing.T) {
	srv, hs := newTestServer(t, Config{Guard: true, Deadline: 1 * time.Nanosecond})
	c, err := udsim.ISCAS85("c6288")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 256, 31)
	resp := post(t, hs, "/v1/batches", "", BatchRequest{Gen: "c6288", Vectors: vecs, DigestOnly: true}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ns deadline produced %s, want 504", resp.Status)
	}
	if st := srv.Stats(); st.DeadlineFailures == 0 {
		t.Error("deadline failure not counted")
	}
}

// TestGuardedBitIdentity asserts a guarded pool serves bit-identical
// outputs (the supervisor must not perturb results).
func TestGuardedBitIdentity(t *testing.T) {
	_, hs := newTestServer(t, Config{Guard: true})
	c, err := udsim.ISCAS85("c1355")
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVectors(t, c, 32, 37)
	var br BatchResponse
	resp := post(t, hs, "/v1/batches", "", BatchRequest{Gen: "c1355", Vectors: vecs}, &br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("guarded batch: %s", resp.Status)
	}
	want := directOutputs(t, c, udsim.TechParallel, vecs)
	for i := range want {
		if br.Outputs[i] != want[i] {
			t.Fatalf("guarded vector %d diverged", i)
		}
	}
}

// TestRequestValidation covers the 400 family: wrong vector width,
// non-binary characters, empty and oversized batches, ambiguous circuit
// selectors, unpoolable techniques.
func TestRequestValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxVectors: 4})
	cases := []struct {
		label string
		req   BatchRequest
	}{
		{"no-vectors", BatchRequest{Gen: "c432"}},
		{"too-many", BatchRequest{Gen: "c432", Vectors: []string{"0", "0", "0", "0", "0"}}},
		{"no-selector", BatchRequest{Vectors: []string{"0"}}},
		{"two-selectors", BatchRequest{Gen: "c432", Bench: "x", Vectors: []string{"0"}}},
		{"bad-width", BatchRequest{Gen: "c432", Vectors: []string{"01"}}},
		{"bad-gen", BatchRequest{Gen: "c9999", Vectors: []string{"0"}}},
		{"bad-technique", BatchRequest{Gen: "c432", Technique: "event3", Vectors: []string{strings.Repeat("0", 36)}}},
		{"bad-chars", BatchRequest{Gen: "c432", Vectors: []string{strings.Repeat("x", 36)}}},
	}
	for _, tc := range cases {
		resp := post(t, hs, "/v1/batches", "", tc.req, nil)
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusInternalServerError {
			if resp.StatusCode == http.StatusOK {
				t.Errorf("%s: accepted, want 4xx", tc.label)
			}
		}
		if resp.StatusCode >= 500 {
			t.Errorf("%s: %s, want a 4xx", tc.label, resp.Status)
		}
	}
}

// TestRetiredExecRejected: the level-sharded strategy is gone, and its
// spellings are refused with a 400 that names the value, before anything
// compiles. A cache key carrying the old exec string must never resolve
// to a program built under another strategy.
func TestRetiredExecRejected(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	vec := `["` + strings.Repeat("0", 36) + `"]`
	for _, exec := range []string{"sharded", "shard"} {
		var er errorResponse
		body := `{"gen":"c432","options":{"exec":"` + exec + `","workers":2},"vectors":` + vec + `}`
		resp := post(t, hs, "/v1/batches", "", json.RawMessage(body), &er)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("exec %q: %s, want 400", exec, resp.Status)
		}
		if !strings.Contains(er.Error, `"`+exec+`"`) {
			t.Errorf("exec %q: error %q does not name the value", exec, er.Error)
		}
	}
	if st := srv.Stats(); st.Compiles != 0 {
		t.Errorf("rejected batches compiled %d programs", st.Compiles)
	}
}

// TestUnknownFieldsRejected: a batch naming a field the server does not
// know — an option it no longer has, or a misspelled top-level field —
// is refused with a 400 that names the field, before anything compiles,
// instead of running under a configuration the client did not ask for.
func TestUnknownFieldsRejected(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	vec := `["` + strings.Repeat("0", 36) + `"]`
	cases := []struct{ field, body string }{
		{"fuse", `{"gen":"c432","options":{"exec":"activity-gated","workers":2,"fuse":true},"vectors":` + vec + `}`},
		{"tecnique", `{"gen":"c432","tecnique":"pcset","vectors":` + vec + `}`},
	}
	for _, tc := range cases {
		var er errorResponse
		resp := post(t, hs, "/v1/batches", "", json.RawMessage(tc.body), &er)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", tc.field, resp.Status)
		}
		if !strings.Contains(er.Error, `"`+tc.field+`"`) {
			t.Errorf("%s: error %q does not name the field", tc.field, er.Error)
		}
	}
	if st := srv.Stats(); st.Compiles != 0 {
		t.Errorf("rejected batches compiled %d programs", st.Compiles)
	}
}

// TestHealthz checks the health endpoint flips to draining.
func TestHealthz(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	get := func() string {
		resp, err := hs.Client().Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]string
		json.NewDecoder(resp.Body).Decode(&m)
		return m["status"]
	}
	if s := get(); s != "ok" {
		t.Fatalf("status %q, want ok", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if s := get(); s != "draining" {
		t.Fatalf("status %q after drain, want draining", s)
	}
}

// TestProgramBytesCoverCode checks the cache's byte estimate against the
// compiled code the template engine actually holds — both emitted
// programs and the sequential execution form built from the sim
// program — so the LRU budget does not evict later than it should.
func TestProgramBytesCoverCode(t *testing.T) {
	srv := New(Config{})
	for _, gen := range []string{"c432", "c880"} {
		c, err := udsim.ISCAS85(gen)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := udsim.WriteBench(&buf, c); err != nil {
			t.Fatal(err)
		}
		circ, bench, id, err := canonicalize(buf.String(), gen)
		if err != nil {
			t.Fatal(err)
		}
		rc := &regCircuit{id: id, bench: bench, circ: circ}
		for _, tech := range []string{"parallel", "parallel-pt-trim", "pcset"} {
			p, err := srv.buildProgram(id+"|"+tech, rc, tech, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			in := p.tmpl.(udsim.Introspector)
			code := in.CodeBytes()
			if min := int64(in.CodeSize()) * 16; code <= min {
				t.Errorf("%s/%s: CodeBytes %d does not exceed the emitted programs' %d bytes (the sequential form is a second copy)", gen, tech, code, min)
			}
			// Code once, state per pool member (template included), netlist text.
			want := code + int64(p.bound+1)*int64(len(circ.Nets))*16 + int64(len(bench))
			if p.bytes < want {
				t.Errorf("%s/%s: estimate %d bytes does not cover %d bytes of compiled code plus state and netlist (%d)", gen, tech, p.bytes, code, want)
			}
			p.destroy()
		}
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"udsim"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0},
		{19, 0},
		{20, 500},   // rank 10, ten beyond the median
		{100, 900},  // p95 would leave five
		{999, 950},  // p99's rank 990 leaves nine
		{1000, 990}, // the smallest count that supports p99
		{9999, 990},
		{10000, 999},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, _, err := latencies(xs); err == nil {
		t.Error("latencies accepted p99 of 999 samples")
	}
	xs = append(xs, 1000)
	_, p99, err := latencies(xs)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 990 {
		t.Errorf("latencies of 1..1000 = p99 %v; want 990", p99)
	}
}

func TestLatenciesP50FollowsSlowShare(t *testing.T) {
	// Runs of 21 windows of p50Window samples, each window in a fast
	// (1 ms) or a slow (2 ms) phase of the host. Between 10 and 11 slow
	// windows the pooled median jumps from one phase to the other; p50
	// moves by the one window's share of the gap.
	run := func(slow int) []float64 {
		var xs []float64
		for w := 0; w < 21; w++ {
			v := 1.0
			if w < slow {
				v = 2
			}
			for i := 0; i < p50Window; i++ {
				xs = append(xs, v+float64(i%3)/1000)
			}
		}
		return xs
	}
	var p50s []float64
	for slow := 10; slow <= 11; slow++ {
		xs := run(slow)
		if pooled := median(xs); (pooled > 1.5) != (slow == 11) {
			t.Fatalf("%d slow windows: pooled median %v on the wrong side of the gap", slow, pooled)
		}
		p50, _, err := latencies(xs)
		if err != nil {
			t.Fatal(err)
		}
		p50s = append(p50s, p50)
	}
	if d := p50s[1] - p50s[0]; math.Abs(d-1.0/21) > 1e-9 {
		t.Errorf("p50 %v → %v: moved %v, want one window's share of the gap, 1/21", p50s[0], p50s[1], d)
	}
}

func TestStreamLatenciesTakesMedianOfStreams(t *testing.T) {
	// Two streams with separated clusters: the pooled median would be
	// decided by the clusters' extremes, the median of medians is not.
	fast, slow := make([]float64, 600), make([]float64, 600)
	for i := range fast {
		fast[i] = 1 + float64(i%7)/100
		slow[i] = 9 + float64(i%5)/100
	}
	fast[599], slow[0] = 3, 7 // outliers at the inner edges
	p50, p99, err := streamLatencies([][]float64{fast, slow})
	if err != nil {
		t.Fatal(err)
	}
	if p50 != (median(fast)+median(slow))/2 {
		t.Errorf("p50 %v, want the mean of the two stream medians", p50)
	}
	if p99 < 9 {
		t.Errorf("p99 %v should lie in the slow stream's cluster", p99)
	}
}

func TestClosure(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		stages, open time.Duration
		ok           bool
	}{
		{100 * ms, 100 * ms, true},
		{85 * ms, 100 * ms, true},   // 15% unattributed: at the tolerance
		{84 * ms, 100 * ms, false},  // 16% missing from the ledger
		{116 * ms, 100 * ms, false}, // stages overshoot the Open
		{3 * ms, 5 * ms, true},      // 40%, but within the absolute floor
		{2 * ms, 5 * ms, false},
	}
	for _, c := range cases {
		cl := closure{stages: c.stages, open: c.open}
		if cl.ok() != c.ok {
			t.Errorf("%v: ok = %v, want %v", cl, cl.ok(), c.ok)
		}
	}
	if g := (closure{stages: 75 * ms, open: 100 * ms}).gap(); g != 0.25 {
		t.Errorf("gap = %v, want 0.25", g)
	}

	tr := newTracer()
	op := tr.op()
	root := tr.begin(op, 0, "open")
	for i := 0; i < 3; i++ {
		if _, err := tr.do(op, root, "stage", func() error { time.Sleep(ms); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	mark := tr.mark()
	d, _ := tr.do(op, root, "stage", func() error { return nil })
	whole := tr.end(root)
	if got := tr.since(mark, "stage"); got != d {
		t.Errorf("since(mark) = %v, want the one later span %v", got, d)
	}
	var sum time.Duration
	for _, d := range tr.durations("stage") {
		sum += d
	}
	if len(tr.durations("stage")) != 4 || sum < 3*ms || sum > whole {
		t.Errorf("stage spans sum %v over %d spans, root %v", sum, len(tr.durations("stage")), whole)
	}
}

// TestTracerConcurrent records spans from several goroutines at once,
// as serve-warm's tenants and handlers do; run it with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				op := tr.op()
				root := tr.begin(op, 0, "client")
				tr.end(tr.begin(op, root, "handler"))
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	if n := len(tr.durations("handler")); n != 400 {
		t.Errorf("%d handler spans, want 400", n)
	}
	for _, s := range tr.spans {
		if s.Name == "handler" && tr.spans[s.Parent-1].Op != s.Op {
			t.Fatalf("span %d has op %d, its parent op %d", s.ID, s.Op, tr.spans[s.Parent-1].Op)
		}
	}
}

// flipOne wraps an engine and inverts one output read on one vector.
type flipOne struct {
	vectorEngine
	net          udsim.NetID
	vector, seen int
}

func (f *flipOne) ApplyVector(v []bool) error {
	f.seen++
	return f.vectorEngine.ApplyVector(v)
}

func (f *flipOne) ResetConsistent(in []bool) error {
	f.seen = 0
	return f.vectorEngine.ResetConsistent(in)
}

func (f *flipOne) Final(n udsim.NetID) bool {
	v := f.vectorEngine.Final(n)
	if n == f.net && f.seen == f.vector {
		return !v
	}
	return v
}

func TestDigestCheckRejectsOneFlippedBit(t *testing.T) {
	spec := simSpec{vectors: 50, segments: 1,
		techs: []technique{{"parallel", udsim.TechParallel, nil}}}
	texts, err := simInputs(&spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := openFacade(&spec, texts[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(ss)
	out := newOutcome()
	pass(ss, 0, out, nil)
	if out.failed != 0 {
		t.Fatalf("unmodified engine failed: %v", out.problems)
	}
	s := ss[0]
	s.eng = &flipOne{vectorEngine: s.eng, net: s.probes[len(s.probes)-1].net, vector: 37}
	pass(ss, 0, out, nil)
	if out.failed != 1 || out.attempted != 2 {
		t.Errorf("one flipped output bit: %d of %d operations failed, want 1 of 2", out.failed, out.attempted)
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, js []def, go_ []metricDef) {
		if len(js) != len(go_) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(js), len(go_))
			return
		}
		for i, d := range js {
			if g := go_[i]; d.Name != g.name || d.Unit != g.unit || d.Better != g.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, d, g)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd)
	same("per_layer", bm.PerLayer, perLayer)
}

// smallSpec shrinks a sim workload so a smoke run collects the p99
// sample count within a second.
func smallSpec(s simSpec) *simSpec {
	s.vectors, s.segments = 4, 2
	return &s
}

func checkResult(t *testing.T, out *outcome, traced bool) {
	t.Helper()
	res, err := out.result(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, out.problems)
	}
	for name, m := range res.Metrics {
		if !traced && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

func TestSmokeSimWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	for _, c := range []struct {
		name string
		spec simSpec
	}{{"sim-stream", streamSpec}, {"sim-proved", provedSpec}} {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: c.name, seed: 3, dur: time.Second, trace: traced}
			out, err := runSim(cfg, smallSpec(c.spec))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", c.name, traced, err)
			}
			checkResult(t, out, traced)
			if traced && out.metrics["trace.closure_gap"] == 0 {
				t.Errorf("%s: traced run reported no closure gap", c.name)
			}
		}
	}
}

func TestSmokeServeWarm(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH for the traced run's native child")
	}
	if testing.Short() {
		t.Skip("smoke runs take seconds and build native children")
	}
	for _, traced := range []bool{false, true} {
		out, err := serveWarm(config{workload: "serve-warm", seed: 3, dur: 2 * time.Second, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, out, traced)
		if traced && out.metrics["serve.compiles"] != 1 {
			t.Errorf("serve.compiles = %v, want 1", out.metrics["serve.compiles"])
		}
		if traced && out.metrics["native.build_s"] == 0 {
			t.Errorf("traced run did not measure the native layer")
		}
	}
}

func TestRunPrintsResultLast(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	var b strings.Builder
	if err := run(config{workload: "serve-warm", seed: 1, dur: time.Second}, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	if !strings.Contains(lines[0], `"gomaxprocs"`) || !strings.Contains(lines[0], `"cpu_model"`) {
		t.Errorf("first line is not the host stamp: %s", lines[0])
	}
}

// Command perfbench is udsim's benchmark. Each invocation runs one
// workload in its own process, generates every input from --seed,
// checks every output against a reference, and prints one JSON result
// as the last line of standard output:
//
//	bash perfbench/run.sh --workload sim-stream --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run is traced and carries the per-layer metrics
// instead. README.md beside this file explains the workloads, the
// metrics and the layers they belong to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of udsim sees; every workload reports
// all of them on an untraced run.
var endToEnd = []metricDef{
	{"throughput_vps", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
}

// perLayer are the traced run's metrics, grouped by the module whose
// exported functions the benchmark times or whose counters it reads.
// A traced run reports all of them; a layer a workload never reaches
// reads 0.
var perLayer = []metricDef{
	{"bench85.parse_s", "s", "lower"},
	{"levelize.analyze_s", "s", "lower"},
	{"align.path_trace_s", "s", "lower"},
	{"parsim.compile_s", "s", "lower"},
	{"pcset.compile_s", "s", "lower"},
	{"parsim.instrs", "count", "lower"},
	{"pcset.instrs", "count", "lower"},
	{"resub.rewrite_s", "s", "lower"},
	{"resub.crosscheck_s", "s", "lower"},
	{"resub.gates_removed", "count", "higher"},
	{"verify.check_s", "s", "lower"},
	{"verify.findings", "count", "lower"},
	{"dataflow.dse_s", "s", "lower"},
	{"dataflow.dse_removed", "count", "higher"},
	{"codegen.validate_s", "s", "lower"},
	{"shard.plan_s", "s", "lower"},
	{"shard.barrier_ops", "ops", "lower"},
	{"shard.levels", "count", "lower"},
	{"shard.busy_s", "s", "lower"},
	{"shard.barrier_wait_s", "s", "lower"},
	{"shard.barriers_per_vector", "count", "lower"},
	{"parsim.gate_skip_ratio", "ratio", "higher"},
	{"parsim.gate_decide_s", "s", "lower"},
	{"program.ns_per_instr.parallel", "ns", "lower"},
	{"program.ns_per_instr.pcset", "ns", "lower"},
	{"program.instrs_per_vector", "count", "lower"},
	{"runtime.allocs_per_vector", "count", "lower"},
	{"resilience.guard_share", "ratio", "lower"},
	{"resilience.faults", "count", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.batch_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.compile_s", "s", "lower"},
	{"serve.pool_waits", "count", "lower"},
	{"serve.compiles", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"http.client_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.allocs_per_batch", "count", "lower"},
	{"native.build_s", "s", "lower"},
	{"native.handshake_s", "s", "lower"},
	{"native.batch_rtt_ms", "ms", "lower"},
	{"native.respawns", "count", "lower"},
	{"native.fallbacks", "count", "lower"},
	{"obs.overhead_share", "ratio", "lower"},
	{"trace.closure_gap", "ratio", "lower"},
}

// workload is one benchmark scenario; run measures it for cfg.dur and
// returns end-to-end or per-layer metrics depending on cfg.trace. Why
// each exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"sim-stream", simStream},
	{"sim-proved", simProved},
	{"serve-warm", serveWarm},
}

type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	spans    string // directory for traced runs' span files; "" writes none
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg     config
		secs    int
		traceOn int
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&secs, "seconds", 30, "length of the timed phase")
	fs.IntVar(&traceOn, "trace", 0, "1 runs traced and reports per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "directory traced runs write their span file to")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if secs < 1 {
		return cfg, fmt.Errorf("--seconds %d: want at least 1", secs)
	}
	if traceOn != 0 && traceOn != 1 {
		return cfg, fmt.Errorf("--trace %d: want 0 or 1", traceOn)
	}
	if _, ok := lookup(cfg.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return cfg, fmt.Errorf("--workload %q: want one of %v", cfg.workload, names)
	}
	cfg.dur = time.Duration(secs) * time.Second
	cfg.trace = traceOn == 1
	return cfg, nil
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check counts one operation; a false ok is a failed operation whose
// description is kept (the first few) for the report.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the outcome under the metric set the run reports:
// every end-to-end metric must have been measured; per-layer metrics a
// workload never reaches read 0.
func (o *outcome) result(traced bool) (*result, error) {
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		v, ok := o.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v: the run was too short to measure it", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range o.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not in the reported set", extra)
	}
	return res, nil
}

// hostStamp names the machine and settings a result came from.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func stamp(cfg config) hostStamp {
	return hostStamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.dur / time.Second),
		Trace:      cfg.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// run executes one workload and writes the host stamp, the notes and
// the result line to w.
func run(cfg config, w io.Writer) error {
	wl, _ := lookup(cfg.workload)
	host, err := json.Marshal(map[string]hostStamp{"host": stamp(cfg)})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(host))
	out, err := wl.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(w, "# FAILED:", p)
	}
	res, err := out.result(cfg.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

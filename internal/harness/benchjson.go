package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"udsim"
	"udsim/internal/circuit"
)

// BenchSchema identifies the bench-file format; bump on incompatible
// changes. Optional fields (the obs_* observability columns) are added
// with omitempty so older checked-in files still parse.
const BenchSchema = "udbench/v1"

// BenchRecord is one measured configuration: a circuit simulated with a
// technique under an execution strategy and worker count.
type BenchRecord struct {
	Circuit         string  `json:"circuit"`
	Technique       string  `json:"technique"`
	Strategy        string  `json:"strategy"`
	Workers         int     `json:"workers"`
	NsPerVector     float64 `json:"ns_per_vector"`
	AllocsPerVector float64 `json:"allocs_per_vector"`
	BytesPerVector  float64 `json:"bytes_per_vector"`

	// Observability columns, filled from a separate observed pass so the
	// timing columns above stay clean of instrumentation overhead.
	ObsLevels                 int     `json:"obs_levels,omitempty"`
	ObsInstrsPerVector        float64 `json:"obs_instrs_per_vector,omitempty"`
	ObsWordsPerVector         float64 `json:"obs_words_per_vector,omitempty"`
	ObsUtilization            float64 `json:"obs_utilization,omitempty"`
	ObsBarrierWaitNsPerVector float64 `json:"obs_barrier_wait_ns_per_vector,omitempty"`

	// Activity-gating columns (the `-exp gating` matrix): the toggle
	// rate of the driving stream, barrier crossings per vector as the
	// observer counts them (every level for the sharded strategy, none
	// for the gated one, which runs on the caller alone), and shard
	// slices skipped per vector.
	ToggleRate                float64 `json:"toggle_rate,omitempty"`
	ObsBarriersPerVector      float64 `json:"obs_barriers_per_vector,omitempty"`
	ObsShardsSkippedPerVector float64 `json:"obs_shards_skipped_per_vector,omitempty"`

	// Multi-tenant service columns (the `-exp serve` matrix): Workers is
	// the concurrent client count, throughput is end-to-end over HTTP,
	// and the cache counters are the compile-once evidence — compiles
	// stays at one per circuit while hits absorb the rest of the load.
	ServeBatches          int64   `json:"serve_batches,omitempty"`
	ServeVectorsPerSecond float64 `json:"serve_vectors_per_second,omitempty"`
	ServeCacheHits        int64   `json:"serve_cache_hits,omitempty"`
	ServeCompiles         int64   `json:"serve_compiles,omitempty"`
	ServePoolPeak         int64   `json:"serve_pool_peak,omitempty"`
	ServeRejected         int64   `json:"serve_rejected,omitempty"`
	ServeIdenticalOutputs bool    `json:"serve_identical_outputs,omitempty"`
}

// BenchFile is the machine-readable benchmark emitted by `udbench -json`,
// checked in as BENCH_<rev>.json so the performance trajectory is
// tracked across revisions.
type BenchFile struct {
	Schema     string        `json:"schema"`
	Revision   string        `json:"revision"`
	GoMaxProcs int           `json:"gomaxprocs"`
	WordBits   int           `json:"word_bits"`
	Vectors    int           `json:"vectors"`
	Records    []BenchRecord `json:"records"`
}

// WriteJSON renders the bench file as indented JSON.
func (b *BenchFile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ParseBenchFile reads and validates a bench file.
func ParseBenchFile(r io.Reader) (*BenchFile, error) {
	var b BenchFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("harness: bench file: %w", err)
	}
	if b.Schema != BenchSchema {
		return nil, fmt.Errorf("harness: bench file schema %q, want %q", b.Schema, BenchSchema)
	}
	if len(b.Records) == 0 {
		return nil, fmt.Errorf("harness: bench file has no records")
	}
	return &b, nil
}

// streamEngine is the facade slice the bench matrix drives: a generic
// engine that streams vectors, releases its workers, and accepts a
// runtime observer. Both compiled techniques satisfy it.
type streamEngine interface {
	udsim.Engine
	udsim.Streamer
	udsim.Closer
	udsim.Observable
}

// measureStream times the vector stream through the engine (best of
// repeats, one warm-up pass first) and measures the steady-state
// allocation rate of the streaming loop.
func measureStream(e streamEngine, vecs [][]bool, repeats int) (BenchRecord, error) {
	var rec BenchRecord
	if err := e.ResetConsistent(nil); err != nil {
		return rec, err
	}
	if err := e.ApplyStream(vecs); err != nil { // warm-up: lazy buffers, clones
		return rec, err
	}
	if repeats < 1 {
		repeats = 1
	}
	var best time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < repeats; r++ {
		start := time.Now()
		if err := e.ApplyStream(vecs); err != nil {
			return rec, err
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(vecs) * repeats)
	rec.NsPerVector = float64(best.Nanoseconds()) / float64(len(vecs))
	rec.AllocsPerVector = float64(ms1.Mallocs-ms0.Mallocs) / n
	rec.BytesPerVector = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	return rec, nil
}

// observeStream replays the stream once with an observer attached and
// fills the record's obs_* columns. It runs after measureStream so the
// timing columns never include instrumentation overhead (tiny as it is).
func observeStream(e streamEngine, vecs [][]bool, rec *BenchRecord) error {
	ob := udsim.NewObserver(udsim.ObserverConfig{})
	e.Observe(ob)
	defer e.Observe(nil)
	if err := e.ResetConsistent(nil); err != nil {
		return err
	}
	if err := e.ApplyStream(vecs); err != nil {
		return err
	}
	s := e.Snapshot()
	if s == nil || s.Vectors == 0 {
		return fmt.Errorf("harness: observer saw no vectors")
	}
	n := float64(s.Vectors)
	rec.ObsLevels = s.Levels
	rec.ObsInstrsPerVector = float64(s.Instrs) / n
	rec.ObsWordsPerVector = float64(s.Words) / n
	rec.ObsUtilization = s.MeanUtilization()
	rec.ObsBarrierWaitNsPerVector = float64(s.BarrierWaitNanos()) / n
	return nil
}

// benchTechniques are the compiled techniques the bench matrix covers.
var benchTechniques = []string{"parallel", "pcset"}

// buildStreamEngine opens one technique through the facade with an
// execution strategy configured.
func buildStreamEngine(technique string, o Options, c *circuit.Circuit, strategy udsim.ExecStrategy, workers int) (streamEngine, error) {
	t, topts, err := udsim.ParseTechnique(technique)
	if err != nil {
		return nil, err
	}
	if t == udsim.TechParallel {
		topts = append(topts, udsim.WithWordBits(o.WordBits))
	}
	topts = append(topts, udsim.WithExec(strategy, workers))
	e, err := udsim.Open(c, t, topts...)
	if err != nil {
		return nil, err
	}
	se, ok := e.(streamEngine)
	if !ok {
		return nil, fmt.Errorf("harness: technique %q cannot stream", technique)
	}
	return se, nil
}

// BenchMatrix measures circuit × technique × strategy × workers and
// returns the machine-readable bench file. The sequential strategy is
// measured once (workers is meaningless for it); sharded and
// vector-batch are measured at every worker count in workersList.
func BenchMatrix(o Options, rev string, workersList []int) (*BenchFile, error) {
	o = o.withDefaults()
	if len(workersList) == 0 {
		workersList = []int{runtime.GOMAXPROCS(0)}
	}
	file := &BenchFile{
		Schema:     BenchSchema,
		Revision:   rev,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WordBits:   o.WordBits,
		Vectors:    o.Vectors,
	}
	type cfg struct {
		strategy udsim.ExecStrategy
		workers  int
	}
	cfgs := []cfg{{udsim.ExecSequential, 1}}
	for _, w := range workersList {
		cfgs = append(cfgs, cfg{udsim.ExecSharded, w}, cfg{udsim.ExecVectorBatch, w})
	}
	for _, name := range o.Circuits {
		c, vecs, err := bench(o, name)
		if err != nil {
			return nil, err
		}
		for _, tech := range benchTechniques {
			for _, cf := range cfgs {
				e, err := buildStreamEngine(tech, o, c, cf.strategy, cf.workers)
				if err != nil {
					return nil, err
				}
				rec, err := measureStream(e, vecs.Bits, o.Repeats)
				if err == nil {
					err = observeStream(e, vecs.Bits, &rec)
				}
				e.Close()
				if err != nil {
					return nil, err
				}
				rec.Circuit = name
				rec.Technique = tech
				rec.Strategy = cf.strategy.String()
				rec.Workers = cf.workers
				file.Records = append(file.Records, rec)
			}
		}
	}
	return file, nil
}

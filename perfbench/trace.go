package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the exported function it calls. Spans of one open or one
// batch share an op id; parent is the id of the enclosing span (0 for
// a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a run's spans in memory until the run writes them out.
// It is safe for concurrent use: serve-warm records client spans and
// handler spans from different goroutines.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op allocates the id shared by the spans of one open or batch.
func (t *tracer) op() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(op, parent int, name string, f func() error) (time.Duration, error) {
	id := t.begin(op, parent, name)
	err := f()
	return t.end(id), err
}

// mark returns a position in the span log; since sums spans after it.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since sums the durations of the closed spans named name recorded
// after mark.
func (t *tracer) since(mark int, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans[mark:] {
		if s.Name == name && s.End != 0 {
			d += s.dur()
		}
	}
	return d
}

// durations lists the durations of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// write stores the spans as JSON lines in dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Closure: the traced run rebuilds each engine stage by stage through
// the exported compile-stage functions, in udsim.Open's order, and
// times a real udsim.Open of the same circuit and options in the same
// run. The stage spans must add up to the real Open: a cost the stages
// cannot account for is a gap in the ledger, and the traced run fails.

// closureTolerance is the largest share of the real Open's time the
// stage spans may miss or overshoot.
const closureTolerance = 0.15

// closureFloor is the absolute gap always tolerated, for workloads
// whose whole Open takes a few milliseconds.
const closureFloor = 2 * time.Millisecond

// closure compares the summed stage spans with the real Opens, both
// as medians over alternating repetitions.
type closure struct {
	stages, open time.Duration
}

// gap is the unattributed share of the real Open: positive when the
// stages miss work, negative when they overshoot.
func (c closure) gap() float64 {
	if c.open <= 0 {
		return math.Inf(1)
	}
	return float64(c.open-c.stages) / float64(c.open)
}

func (c closure) ok() bool {
	d := c.open - c.stages
	if d < 0 {
		d = -d
	}
	return d <= closureFloor || math.Abs(c.gap()) <= closureTolerance
}

func (c closure) String() string {
	return fmt.Sprintf("stages %.4fs vs open %.4fs: gap %+.1f%% (tolerance ±%.0f%% or %v)",
		c.stages.Seconds(), c.open.Seconds(), 100*c.gap(), 100*closureTolerance, closureFloor)
}

// medianDuration is median for durations.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

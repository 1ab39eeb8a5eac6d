package main

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"udsim"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the percentile pm (in tenths of a
// percent, so 990 is p99) among n samples. Integer arithmetic keeps
// p99 of 1000 samples at rank 990 exactly.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile pm (tenths of a
// percent) of xs.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), pm)-1]
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one unlucky sample.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first, in tenths of a percent.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest percentile of tailLadder (tenths
// of a percent) with at least minBeyond of n samples beyond its rank,
// or 0 when even the median has fewer.
func tailPercentile(n int) int {
	for _, pm := range tailLadder {
		if n-rank(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// p99Samples is the smallest sample count at which p99 is reportable
// under the tail rule.
const p99Samples = 1000

// p50Window is how many consecutive latency samples each median that
// latencies averages into p50 covers: short enough to sit inside one
// phase of the host, long enough that a collection-delayed sample does
// not move it.
const p50Window = 64

// latencies summarizes latency samples (milliseconds, in the order
// they were taken) as p50 and p99, refusing a p99 the tail rule cannot
// support.
//
// On a shared host the same request runs at one speed for a stretch of
// tens to hundreds of milliseconds and then up to twice as slow for
// the next, so the samples of one run form two clusters whose shares
// follow the host, not the program. The pooled median of such samples
// jumps from one cluster to the other when the slow share crosses a
// half. p50 is therefore the mean, over consecutive windows of
// p50Window samples, of each window's median: each window's median is
// the typical latency of its stretch of the run, and their mean moves
// in proportion to the slow share instead of jumping.
//
// The p99 is the median, over consecutive windows of at least
// p99Samples samples, of each window's own p99: every window supports
// p99 under the tail rule by itself, and a stretch of the run disturbed
// by the host moves only its own window.
func latencies(ms []float64) (p50, p99 float64, err error) {
	if pm := tailPercentile(len(ms)); pm < 990 {
		return 0, 0, fmt.Errorf("%d latency samples support only p%.1f, not p99", len(ms), float64(pm)/10)
	}
	ws := windows(ms, p50Window)
	var sum float64
	for _, w := range ws {
		sum += median(w)
	}
	var ps []float64
	for _, w := range windows(ms, p99Samples) {
		ps = append(ps, percentile(w, 990))
	}
	return sum / float64(len(ws)), median(ps), nil
}

// windows cuts xs into consecutive windows of n samples; the last
// window also takes the remainder. xs holds at least n samples.
func windows(xs []float64, n int) [][]float64 {
	ws := make([][]float64, len(xs)/n)
	for w := range ws {
		hi := (w + 1) * n
		if w == len(ws)-1 {
			hi = len(xs)
		}
		ws[w] = xs[w*n : hi]
	}
	return ws
}

// window is serve-warm's throughput sampling window. Its traced run
// traces every other window.
const window = time.Second

// tracedWindow reports whether the window containing offset d of a
// traced run's timed phase is traced.
func tracedWindow(d time.Duration) bool { return (d/window)%2 == 1 }

// windowRates splits a timed phase of length elapsed into whole windows
// and returns each window's vectors completed per second, split into
// untraced and traced windows. ends are the completion offsets of the
// successful operations, each of size vectors; traced is nil for an
// untraced run.
func windowRates(ends []time.Duration, elapsed time.Duration, vectors int, traced func(time.Duration) bool) (plain, tr []float64) {
	per := make([]int, int(elapsed/window))
	for _, at := range ends {
		if w := int(at / window); w < len(per) {
			per[w] += vectors
		}
	}
	for w, n := range per {
		vps := float64(n) / window.Seconds()
		if traced != nil && traced(time.Duration(w)*window) {
			tr = append(tr, vps)
		} else {
			plain = append(plain, vps)
		}
	}
	return plain, tr
}

// digest is 64-bit FNV-1a (hash/fnv) over every vector's settled
// primary outputs, one '0' or '1' byte per output in circuit order. It
// is the digest internal/serve returns for digest-only batches, so one
// reference serves the in-process and the HTTP workloads.
type digest uint64

// String renders the digest the way the service does.
func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// digester hashes one vector's outputs at a time into a digest.
type digester struct {
	h   hash.Hash64
	buf []byte // the current vector's outputs as '0'/'1'
}

func newDigester(outputs int) *digester {
	return &digester{h: fnv.New64a(), buf: make([]byte, outputs)}
}

// reset starts a new digest.
func (d *digester) reset() { d.h.Reset() }

// set records output i of the current vector.
func (d *digester) set(i int, v bool) {
	d.buf[i] = '0'
	if v {
		d.buf[i] = '1'
	}
}

// next hashes the current vector's outputs.
func (d *digester) next() { d.h.Write(d.buf) }

// fold hashes one vector's outputs, read from e through ps.
func (d *digester) fold(e finaler, ps []probe) {
	for i, p := range ps {
		d.set(i, p.read(e))
	}
	d.next()
}

func (d *digester) sum() digest { return digest(d.h.Sum64()) }

// probe reads one primary output of an engine. Engines built on a
// resubstituted netlist read a proven constant, or the surviving
// representative, possibly inverted; every other probe is a plain read.
type probe struct {
	net     udsim.NetID
	inv     bool
	isConst bool
	val     bool
}

func plainProbes(outs []udsim.NetID) []probe {
	ps := make([]probe, len(outs))
	for i, o := range outs {
		ps[i] = probe{net: o}
	}
	return ps
}

// finaler reads a net's settled value after the last vector.
type finaler interface {
	Final(n udsim.NetID) bool
}

// read returns the probed output's settled value on e.
func (p probe) read(e finaler) bool {
	if p.isConst {
		return p.val
	}
	return e.Final(p.net) != p.inv
}

// zeroDelayFinal reads the interpreted zero-delay simulator's values.
type zeroDelayFinal struct{ *udsim.ZeroDelayInterp }

func (z zeroDelayFinal) Final(n udsim.NetID) bool { return z.Value(n) == udsim.V1 }

// referenceDigest simulates vecs from the all-zeros settled state on the
// interpreted zero-delay simulator — an engine no workload measures —
// and returns the digest of every vector's settled outputs.
func referenceDigest(c *udsim.Circuit, vecs [][]bool) (digest, error) {
	z, err := udsim.NewZeroDelayInterpreted(c)
	if err != nil {
		return 0, err
	}
	outs := plainProbes(z.Circuit().Outputs)
	d := newDigester(len(outs))
	for _, v := range vecs {
		if err := z.ApplyVector(v); err != nil {
			return 0, err
		}
		d.fold(zeroDelayFinal{z}, outs)
	}
	return d.sum(), nil
}

// directDigests runs every batch on a direct in-process engine, from
// the all-zeros state as the service does per batch, and returns the
// digest of each batch's outputs.
func directDigests(c *udsim.Circuit, batches [][][]bool) ([]digest, error) {
	e, err := udsim.Open(c, udsim.TechParallel)
	if err != nil {
		return nil, err
	}
	outs := plainProbes(e.Circuit().Outputs)
	var ds []digest
	for _, vecs := range batches {
		if err := e.ResetConsistent(nil); err != nil {
			return nil, err
		}
		d := newDigester(len(outs))
		for _, v := range vecs {
			if err := e.Apply(v); err != nil {
				return nil, err
			}
			d.fold(e, outs)
		}
		ds = append(ds, d.sum())
	}
	return ds, nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memDelta is the Go runtime's allocation and collection work between
// two points of a run.
type memDelta struct {
	gcCycles uint32
	gcPause  time.Duration
	mallocs  uint64
}

type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (a *memMark) since() memDelta {
	b := markMem()
	return memDelta{
		gcCycles: b.NumGC - a.NumGC,
		gcPause:  time.Duration(b.PauseTotalNs - a.PauseTotalNs),
		mallocs:  b.Mallocs - a.Mallocs,
	}
}

func (m *memDelta) add(o memDelta) {
	m.gcCycles += o.gcCycles
	m.gcPause += o.gcPause
	m.mallocs += o.mallocs
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterMath pins the arithmetic of Snapshot against hand-fed
// counter updates on a known shape.
func TestCounterMath(t *testing.T) {
	o := New(Config{Activity: true})
	o.Attach(Shape{
		Engine: "parallel", Levels: 2, Steps: 4, Nets: 3,
		SimInstrs: 10, InitInstrs: 4,
		SimWords: 25, InitWords: 8, SimScratch: 6,
	})
	o.AddVectors(3)
	o.AddInit(2 * time.Microsecond)
	o.AddInit(2 * time.Microsecond)
	o.AddRun(10 * time.Microsecond)
	o.AddRun(10 * time.Microsecond)
	// Two executions of each level, of different sizes on level 1.
	o.AddLevel(0, 4*time.Microsecond, 6)
	o.AddLevel(0, 4*time.Microsecond, 6)
	o.AddLevel(1, 3*time.Microsecond, 5)
	o.AddLevel(1, 1*time.Microsecond, 3)
	o.AddTransition(1)
	o.AddTransition(1)
	o.AddTransition(3)
	o.AddNetToggles(0, 1)
	o.AddNetToggles(2, 3) // 2 glitch transitions
	o.AddActivityVector()

	s := o.Snapshot()
	if s.Engine != "parallel" || s.Levels != 2 || len(s.Level) != 2 {
		t.Fatalf("shape mangled: %+v", s)
	}
	if s.Vectors != 3 || s.Runs != 2 || s.InitRuns != 2 {
		t.Fatalf("counts: vectors=%d runs=%d initRuns=%d", s.Vectors, s.Runs, s.InitRuns)
	}
	if s.RunNanos != 20000 || s.InitNanos != 4000 {
		t.Fatalf("nanos: run=%d init=%d", s.RunNanos, s.InitNanos)
	}
	if s.Instrs != 20 || s.InitInstrs != 8 {
		t.Fatalf("instrs: sim=%d init=%d", s.Instrs, s.InitInstrs)
	}
	if s.Words != 2*25+2*8 || s.Scratch != 2*6 {
		t.Fatalf("traffic: words=%d scratch=%d", s.Words, s.Scratch)
	}
	if s.Level[0] != (LevelStat{Nanos: 8000, Instrs: 12}) || s.Level[1] != (LevelStat{Nanos: 4000, Instrs: 8}) {
		t.Fatalf("level totals: %+v", s.Level)
	}
	if s.BusyNanos() != 12000 || s.BarrierWaitNanos() != 0 {
		t.Fatalf("totals: busy=%d wait=%d", s.BusyNanos(), s.BarrierWaitNanos())
	}
	if s.Steps[1] != 2 || s.Steps[3] != 1 || s.Steps[0] != 0 {
		t.Fatalf("steps: %v", s.Steps)
	}
	if s.TotalToggles() != 4 || s.TotalGlitches() != 2 {
		t.Fatalf("activity totals: %d toggles %d glitches", s.TotalToggles(), s.TotalGlitches())
	}
	if s.ActivityVectors != 1 {
		t.Fatalf("activity vectors %d", s.ActivityVectors)
	}
	if s.WallNanos <= 0 || s.VectorsPerSec() <= 0 {
		t.Fatalf("wall window: %d ns, %v vec/s", s.WallNanos, s.VectorsPerSec())
	}
}

// TestConcurrentMerging hammers one observer from concurrent workers —
// the vector-batch usage pattern, whose clones share one observer — and
// checks the snapshot totals are exact. Run under -race this also proves
// the Add* paths and a concurrent Snapshot are data-race free.
func TestConcurrentMerging(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const levels, rounds = 5, 200
			o := New(Config{Activity: true})
			o.Attach(Shape{Engine: "test", Levels: levels, Steps: 8, Nets: 4})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for l := 0; l < levels; l++ {
							o.AddLevel(l, time.Nanosecond*7, 3)
						}
						o.AddTransition(r % 8)
						o.AddNetToggles(r%4, 2)
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { // concurrent reader: must be race-free, values monotone
				defer close(done)
				for i := 0; i < 50; i++ {
					s := o.Snapshot()
					if s.Instrs < 0 {
						t.Error("negative instruction count")
						return
					}
				}
			}()
			wg.Wait()
			<-done
			s := o.Snapshot()
			wantInstrs := int64(workers * rounds * levels * 3)
			if s.Instrs != wantInstrs {
				t.Fatalf("instrs %d, want %d", s.Instrs, wantInstrs)
			}
			if got := s.BusyNanos(); got != int64(workers*rounds*levels*7) {
				t.Fatalf("busy %d", got)
			}
			var steps int64
			for _, v := range s.Steps {
				steps += v
			}
			if steps != int64(workers*rounds) {
				t.Fatalf("transitions %d, want %d", steps, workers*rounds)
			}
			if s.TotalToggles() != int64(workers*rounds*2) {
				t.Fatalf("toggles %d", s.TotalToggles())
			}
			for l := range s.Level {
				if s.Level[l].Instrs != int64(workers*rounds*3) {
					t.Fatalf("level %d instrs %d", l, s.Level[l].Instrs)
				}
			}
		})
	}
}

// TestSnapshotMerge checks Merge sums two windows and rejects shape
// mismatches.
func TestSnapshotMerge(t *testing.T) {
	mk := func(runs int64) *Snapshot {
		o := New(Config{})
		o.Attach(Shape{Engine: "parallel", Levels: 2, SimInstrs: 5, SimWords: 9, SimScratch: 2})
		for i := int64(0); i < runs; i++ {
			o.AddVectors(1)
			o.AddRun(time.Microsecond)
			o.AddLevel(0, time.Microsecond/2, 3)
			o.AddLevel(1, time.Microsecond/2, 2)
		}
		return o.Snapshot()
	}
	a, b := mk(3), mk(5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Vectors != 8 || a.Runs != 8 || a.Instrs != 8*5 || a.Words != 8*9 || a.Scratch != 8*2 {
		t.Fatalf("merged totals: %+v", a)
	}
	if a.Level[0].Instrs != 8*3 || a.Level[1].Nanos != 8*500 {
		t.Fatalf("merged grid: %+v", a.Level)
	}
	other := &Snapshot{Engine: "pcset", Levels: 2}
	if err := a.Merge(other); err == nil {
		t.Fatal("merged snapshots of different engines")
	}
}

// TestTextExport round-trips WriteText through ValidateText and pins a
// few sample lines; ValidateText must reject malformed exports.
func TestTextExport(t *testing.T) {
	o := New(Config{Activity: true})
	o.Attach(Shape{Engine: "parallel+trim", Levels: 2, Steps: 3, Nets: 2, SimInstrs: 4})
	o.AddVectors(2)
	o.AddRun(time.Microsecond)
	o.AddLevel(0, time.Microsecond, 4)
	o.AddTransition(1)
	o.AddNetToggles(0, 1)

	var buf bytes.Buffer
	if err := o.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`udsim_vectors_total{engine="parallel+trim"} 2`,
		`udsim_level_instrs_total{engine="parallel+trim",level="0"} 4`,
		`udsim_activity_transitions_total{engine="parallel+trim",step="1"} 1`,
		"# TYPE udsim_level_seconds_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q\n%s", want, out)
		}
	}
	if err := ValidateText(strings.NewReader(out)); err != nil {
		t.Fatalf("valid export rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"empty":        "",
		"comment only": "# TYPE x counter\n",
		"bare name":    "udsim_vectors_total 3\n", // WriteText always labels
		"garbage":      "ns/op 123 zzz\n",
		"bad value":    `udsim_vectors_total{engine="x"} notanumber` + "\n",
	} {
		if err := ValidateText(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: malformed export accepted", name)
		}
	}
}

// TestNilAndDetached pins the disabled-path contract: a nil observer
// reports activity disabled, and an unattached observer snapshots to
// zeros without panicking.
func TestNilAndDetached(t *testing.T) {
	var o *Observer
	if o.ActivityEnabled() {
		t.Fatal("nil observer claims activity")
	}
	s := New(Config{}).Snapshot()
	if s.Vectors != 0 || len(s.Level) != 0 || s.WallNanos != 0 {
		t.Fatalf("detached snapshot not empty: %+v", s)
	}
}

// TestExpvar checks the expvar adapter renders JSON.
func TestExpvar(t *testing.T) {
	o := New(Config{})
	o.Attach(Shape{Engine: "parallel", Levels: 1})
	o.AddVectors(7)
	js := o.Expvar().String()
	if !strings.Contains(js, `"vectors": 7`) && !strings.Contains(js, `"vectors":7`) {
		t.Fatalf("expvar JSON missing vectors: %s", js)
	}
}

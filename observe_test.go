package udsim

import (
	"bytes"
	"testing"

	"udsim/internal/obs"
	"udsim/internal/vectors"
)

// TestSnapshotConsistencySharded checks the acceptance invariants of the
// observer on a leveled plan — the activity-gated engine on c7552 — over
// a uniformly random stream, which sends every vector to the sequential
// form: the grid has the plan's levels, every vector executes the init
// and sim programs exactly once, the cells sum to the totals, and the
// export validates.
func TestSnapshotConsistencySharded(t *testing.T) {
	c, err := ISCAS85("c7552")
	if err != nil {
		t.Fatal(err)
	}
	ob := NewObserver(ObserverConfig{})
	e, err := Open(c, TechParallel, WithExec(ExecActivityGated, 4), WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	defer e.(Closer).Close()
	se := e.(Streamer)
	if err := e.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	const n = 64
	vecs := vectors.Random(n, len(c.Inputs), 1990)
	if err := se.ApplyStream(vecs.Bits); err != nil {
		t.Fatal(err)
	}
	s := e.(Observable).Snapshot()
	if s == nil {
		t.Fatal("nil snapshot with observer attached")
	}

	if s.Engine != "parallel" || s.Workers != 1 {
		t.Fatalf("shape %s %dx%d", s.Engine, s.Levels, s.Workers)
	}
	if s.Levels < 2 || len(s.Level) != s.Levels || len(s.Worker) != s.Workers {
		t.Fatalf("grid %d levels (%d stats), %d workers (%d stats)",
			s.Levels, len(s.Level), s.Workers, len(s.Worker))
	}
	if s.Vectors != n || s.Runs != n || s.GatedVectors[obs.GatedSequential] != n {
		t.Fatalf("vectors %d runs %d sequential-form vectors %d, want %d",
			s.Vectors, s.Runs, s.GatedVectors[obs.GatedSequential], n)
	}

	// Exact accounting: every vector executes the init and sim programs
	// exactly once, so sim + init instruction totals recover runs ×
	// CodeSize exactly.
	code := e.(Introspector).CodeSize()
	if want := int64(n) * int64(code); s.Instrs+s.InitInstrs != want {
		t.Fatalf("instrs %d+%d, want %d (= %d runs x %d instrs)",
			s.Instrs, s.InitInstrs, want, n, code)
	}
	var cellInstrs int64
	for l := range s.Level {
		cellInstrs += s.Level[l].Instrs()
	}
	if cellInstrs != s.Instrs {
		t.Fatalf("cell sum %d != total %d", cellInstrs, s.Instrs)
	}
	if s.Words <= 0 || s.Scratch <= 0 {
		t.Fatalf("traffic words=%d scratch=%d", s.Words, s.Scratch)
	}

	// Busy time is exactly the sum of the level cells (both sides are fed
	// from the same clock reads), and happens inside the observation
	// window.
	var busy int64
	for l := range s.Level {
		busy += s.Level[l].ShardNanos[0]
	}
	if busy != s.Worker[0].BusyNanos {
		t.Fatalf("busy %d != cell sum %d", s.Worker[0].BusyNanos, busy)
	}
	if s.BusyNanos() <= 0 || s.WallNanos <= 0 || s.RunNanos <= 0 {
		t.Fatalf("times busy=%d wall=%d run=%d", s.BusyNanos(), s.WallNanos, s.RunNanos)
	}
	if s.BusyNanos() > s.WallNanos || s.RunNanos > s.WallNanos {
		t.Fatalf("busy %d or run time %d exceeds wall time %d", s.BusyNanos(), s.RunNanos, s.WallNanos)
	}
	if s.VectorsPerSec() <= 0 {
		t.Fatalf("throughput %v", s.VectorsPerSec())
	}

	// The text exposition of a real snapshot must validate.
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateText(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("export: %v\n%s", err, buf.String())
	}
}

// TestActivityEquivalence checks the activity bridge: the observer's
// per-net toggle/glitch counters collected during normal simulation must
// reproduce ProfileActivity's dedicated pass exactly — from the parallel
// engine and from the PC-set engine with every net monitored.
func TestActivityEquivalence(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	vecs := vectors.Random(32, len(c.Inputs), 7)

	ref, err := ProfileActivity(c, vecs.Bits)
	if err != nil {
		t.Fatal(err)
	}

	all := make([]NetID, c.NumNets())
	for n := range all {
		all[n] = NetID(n)
	}
	engines := []struct {
		label string
		open  func(ob *Observer) (Engine, error)
	}{
		{"parallel", func(ob *Observer) (Engine, error) {
			return Open(c, TechParallel, WithObserver(ob))
		}},
		{"pcset-monitor-all", func(ob *Observer) (Engine, error) {
			return Open(c, TechPCSet, WithMonitor(all...), WithObserver(ob))
		}},
	}
	for _, tc := range engines {
		ob := NewObserver(ObserverConfig{Activity: true})
		e, err := tc.open(ob)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		for _, vec := range vecs.Bits {
			if err := e.Apply(vec); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := ActivityFromSnapshot(c, e.(Observable).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Vectors != ref.Vectors {
			t.Fatalf("%s: %d vectors, want %d", tc.label, rep.Vectors, ref.Vectors)
		}
		for n := range ref.Toggles {
			if rep.Toggles[n] != ref.Toggles[n] || rep.Glitches[n] != ref.Glitches[n] {
				t.Fatalf("%s: net %d toggles %d/%d glitches %d/%d", tc.label, n,
					rep.Toggles[n], ref.Toggles[n], rep.Glitches[n], ref.Glitches[n])
			}
		}
	}

	// Without Activity enabled the bridge refuses.
	if _, err := ActivityFromSnapshot(c, nil); err == nil {
		t.Error("expected error from nil snapshot")
	}
	ob := NewObserver(ObserverConfig{})
	e, err := Open(c, TechParallel, WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ActivityFromSnapshot(c, e.(Observable).Snapshot()); err == nil {
		t.Error("expected error from activity-disabled snapshot")
	}
}

// TestObserverSteadyStateAllocs asserts the tentpole overhead budget: an
// enabled observer (activity included) adds zero allocations per op to
// the steady-state streaming loop.
func TestObserverSteadyStateAllocs(t *testing.T) {
	c, err := ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		label string
		open  func(ob *Observer) (Engine, error)
	}{
		{"parallel-seq", func(ob *Observer) (Engine, error) {
			return Open(c, TechParallel, WithObserver(ob))
		}},
		{"parallel-gated", func(ob *Observer) (Engine, error) {
			return Open(c, TechParallel, WithExec(ExecActivityGated, 1), WithObserver(ob))
		}},
		{"parallel-batch", func(ob *Observer) (Engine, error) {
			return Open(c, TechParallel, WithExec(ExecVectorBatch, 2), WithObserver(ob))
		}},
		{"pcset-seq", func(ob *Observer) (Engine, error) {
			return Open(c, TechPCSet, WithObserver(ob))
		}},
	} {
		ob := NewObserver(ObserverConfig{Activity: true})
		e, err := tc.open(ob)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		se := e.(Streamer)
		vecs := toggleStream(16, len(c.Inputs), 0.02, 3)
		if err := se.ApplyStream(vecs); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := se.ApplyStream(vecs); err != nil {
				t.Fatal(err)
			}
		})
		e.(Closer).Close()
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op in observed steady state, want 0", tc.label, allocs)
		}
	}
}

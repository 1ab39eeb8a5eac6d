package udsim

import (
	"strings"
	"testing"

	"udsim/internal/vectors"
)

// sameEngine drives both engines through the same short stream and
// compares identity (name, depth, code size) and every net's waveform.
func sameEngine(t *testing.T, label string, a, b Engine, vecs *vectors.Set) {
	t.Helper()
	if a.EngineName() != b.EngineName() {
		t.Fatalf("%s: names %q vs %q", label, a.EngineName(), b.EngineName())
	}
	if a.Depth() != b.Depth() {
		t.Fatalf("%s: depths %d vs %d", label, a.Depth(), b.Depth())
	}
	ia, aok := a.(Introspector)
	ib, bok := b.(Introspector)
	if aok != bok || (aok && ia.CodeSize() != ib.CodeSize()) {
		t.Fatalf("%s: code sizes differ", label)
	}
	if err := a.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := b.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	ta, taOK := a.(Tracer)
	tb, _ := b.(Tracer)
	for _, vec := range vecs.Bits {
		if err := a.Apply(vec); err != nil {
			t.Fatal(err)
		}
		if err := b.Apply(vec); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < a.Circuit().NumNets(); n++ {
			id := NetID(n)
			if a.Final(id) != b.Final(id) {
				t.Fatalf("%s: net %d finals differ", label, n)
			}
			if !taOK {
				continue
			}
			for tm := 0; tm <= a.Depth(); tm++ {
				av, aok := ta.ValueAt(id, tm)
				bv, bok := tb.ValueAt(id, tm)
				if av != bv || aok != bok {
					t.Fatalf("%s: net %d t=%d: (%v,%v) vs (%v,%v)", label, n, tm, av, aok, bv, bok)
				}
			}
		}
	}
}

// TestOpenTechniqueNames asserts every CLI technique name round-trips
// through ParseTechnique + Open.
func TestOpenTechniqueNames(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Techniques() {
		tech, opts, err := ParseTechnique(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Open(c, tech, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(name, tech.String()) {
			t.Errorf("%s parsed to technique %v", name, tech)
		}
		if err := e.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ParseTechnique("bogus"); err == nil {
		t.Error("expected unknown-technique error")
	}
	if _, err := Open(c, Technique(99)); err == nil {
		t.Error("expected unknown-technique error from Open")
	}
}

// TestOpenRejectsInapplicableOptions asserts the option-applicability
// contract: wrong-technique options error instead of being ignored.
func TestOpenRejectsInapplicableOptions(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label string
		tech  Technique
		opt   Option
	}{
		{"pcset+WithWordBits", TechPCSet, WithWordBits(8)},
		{"pcset+WithTrimming", TechPCSet, WithTrimming()},
		{"pcset+WithShiftElimination", TechPCSet, WithShiftElimination(PathTracing)},
		{"parallel+WithMonitor", TechParallel, WithMonitor(c.Outputs[0])},
		{"event3+WithExec", TechEvent3, WithExec(ExecVectorBatch, 2)},
		{"event2+WithVerify", TechEvent2, WithVerify()},
		{"lcc+WithObserver", TechLCC, WithObserver(NewObserver(ObserverConfig{}))},
		{"lcc+WithMonitor", TechLCC, WithMonitor(c.Outputs[0])},
	}
	for _, tc := range cases {
		if _, err := Open(c, tc.tech, tc.opt); err == nil {
			t.Errorf("%s: expected rejection", tc.label)
		}
	}
	// WithMonitor of the primary outputs builds the default-monitor engine.
	mon, err := Open(c, TechPCSet, WithMonitor(c.Outputs...))
	if err != nil {
		t.Fatal(err)
	}
	def, err := Open(c, TechPCSet)
	if err != nil {
		t.Fatal(err)
	}
	sameEngine(t, "pcset/monitor", mon, def, vectors.Random(2, len(c.Inputs), 7))
}

// TestTracerContract is the regression test for the facade asymmetry
// this API carried for a while: ParallelSim.ValueAt hard-coded ok=true
// (even for negative times), while PCSetSim could report unobservable
// nets. Both now route through the engines' Trace contract.
func TestTracerContract(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	par, err := Open(c, TechParallel)
	if err != nil {
		t.Fatal(err)
	}
	pcs, err := Open(c, TechPCSet) // monitor = primary outputs
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]bool, len(c.Inputs))
	for _, e := range []Engine{par, pcs} {
		if err := e.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		if err := e.Apply(vec); err != nil {
			t.Fatal(err)
		}
	}
	pt := par.(Tracer)
	ct := pcs.(Tracer)

	// Negative times belong to the previous vector: never observable,
	// from either engine.
	for n := 0; n < c.NumNets(); n++ {
		if _, ok := pt.ValueAt(NetID(n), -1); ok {
			t.Fatalf("parallel: net %d observable at t=-1", n)
		}
		if _, ok := ct.ValueAt(NetID(n), -1); ok {
			t.Fatalf("pcset: net %d observable at t=-1", n)
		}
	}

	// The parallel technique retains every waveform; the PC-set method
	// leaves some unmonitored net unobservable at early times. The same
	// nets must still be fully observable from the parallel engine.
	hidden := 0
	for n := 0; n < c.NumNets(); n++ {
		for tm := 0; tm <= par.Depth(); tm++ {
			if _, ok := pt.ValueAt(NetID(n), tm); !ok {
				t.Fatalf("parallel: net %d unobservable at t=%d", n, tm)
			}
			if _, ok := ct.ValueAt(NetID(n), tm); !ok {
				hidden++
			}
		}
	}
	if hidden == 0 {
		t.Fatal("pcset monitoring hid nothing — the asymmetry test lost its subject")
	}

	// Monitoring every net makes the whole waveform observable: the
	// PRINT group's minimum minlevel is 0 (the primary inputs), so
	// zero-insertion extends every other net back to time 0.
	all := make([]NetID, c.NumNets())
	for n := range all {
		all[n] = NetID(n)
	}
	full, err := Open(c, TechPCSet, WithMonitor(all...))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := full.Apply(vec); err != nil {
		t.Fatal(err)
	}
	ft := full.(Tracer)
	for n := 0; n < full.Circuit().NumNets(); n++ {
		for tm := 0; tm <= full.Depth(); tm++ {
			fv, ok := ft.ValueAt(NetID(n), tm)
			if !ok {
				t.Fatalf("pcset monitor-all: net %d unobservable at t=%d", n, tm)
			}
			if pv, _ := pt.ValueAt(NetID(n), tm); pv != fv {
				t.Fatalf("pcset monitor-all: net %d t=%d disagrees with parallel", n, tm)
			}
		}
	}
}

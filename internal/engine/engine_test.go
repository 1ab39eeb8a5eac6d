package engine_test

import (
	"fmt"
	"testing"

	"udsim/internal/align"
	"udsim/internal/circuit"
	"udsim/internal/engine"
	"udsim/internal/gen"
	"udsim/internal/levelize"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/shard"
	"udsim/internal/vectors"
)

// sim is a compiled technique as these tests drive it.
type sim interface {
	engine.Technique
	ResetConsistent(inputs []bool) error
	ApplyVector(inputs []bool) error
	Trace(n circuit.NetID, t int) (bool, bool)
}

// layouts are the compiled layouts the state contract is checked on:
// flat fields, shift-eliminated fields whose inputs keep previous-vector
// bits below their split (path tracing, trimmed; cycle breaking), and
// the PC-set method's one variable per potential change.
var layouts = []struct {
	name  string
	build func(*circuit.Circuit) (sim, error)
}{
	{"parallel", func(c *circuit.Circuit) (sim, error) {
		return parsim.Compile(c, parsim.Config{WordBits: 8})
	}},
	{"parallel-pt-trim", func(c *circuit.Circuit) (sim, error) {
		return alignedParallel(c, align.PathTrace, true)
	}},
	{"parallel-cb", func(c *circuit.Circuit) (sim, error) {
		return alignedParallel(c, align.CycleBreak, false)
	}},
	{"pcset", func(c *circuit.Circuit) (sim, error) {
		return pcset.Compile(c, nil)
	}},
}

func alignedParallel(c *circuit.Circuit, method func(*levelize.Analysis) *align.Result, trim bool) (sim, error) {
	norm, a, err := parsim.Analyze(c)
	if err != nil {
		return nil, err
	}
	return parsim.Compile(norm, parsim.Config{WordBits: 8, Trim: trim, Align: method(a)})
}

// forEach runs f on every ISCAS-85 profile under every layout.
func forEach(t *testing.T, f func(t *testing.T, s sim, vecs [][]bool)) {
	for _, name := range gen.Names() {
		c, err := gen.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		vecs := vectors.Random(12, len(c.Inputs), 1990).Bits
		for _, l := range layouts {
			t.Run(name+"/"+l.name, func(t *testing.T) {
				s, err := l.build(c)
				if err != nil {
					t.Fatal(err)
				}
				core := engine.CoreOf(s)
				defer core.Close()
				if err := s.ResetConsistent(nil); err != nil {
					t.Fatal(err)
				}
				f(t, s, vecs)
			})
		}
	}
}

// apply runs vectors through the technique's own ApplyVector.
func apply(t *testing.T, s sim, vecs [][]bool) {
	t.Helper()
	for _, v := range vecs {
		if err := s.ApplyVector(v); err != nil {
			t.Fatal(err)
		}
	}
}

// waveform records every net's observable history of the last vector.
func waveform(s sim) string {
	core := engine.CoreOf(s)
	c := core.Circuit()
	b := make([]byte, 0, c.NumNets()*(core.Depth()+1))
	for n := range c.Nets {
		for tm := 0; tm <= core.Depth(); tm++ {
			v, ok := s.Trace(circuit.NetID(n), tm)
			switch {
			case !ok:
				b = append(b, '-')
			case v:
				b = append(b, '1')
			default:
				b = append(b, '0')
			}
		}
	}
	return string(b)
}

// waveforms applies vecs one at a time and records the waveform after each.
func waveforms(t *testing.T, s sim, vecs [][]bool) []string {
	t.Helper()
	out := make([]string, len(vecs))
	for i, v := range vecs {
		apply(t, s, [][]bool{v})
		out[i] = waveform(s)
	}
	return out
}

func sameWaves(t *testing.T, label string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: vector %d waveform differs", label, i)
		}
	}
}

// TestFinalSlotMatchesFinal: the final-bit table behind Final and
// FinalSlot addresses the same bit, for every net.
func TestFinalSlotMatchesFinal(t *testing.T) {
	forEach(t, func(t *testing.T, s sim, vecs [][]bool) {
		core := engine.CoreOf(s)
		apply(t, s, vecs)
		for n := range core.Circuit().Nets {
			id := circuit.NetID(n)
			slot, mask := core.FinalSlot(id)
			if got := core.St[slot]&mask != 0; got != core.Final(id) {
				t.Fatalf("net %d: FinalSlot bit %v, Final %v", n, got, core.Final(id))
			}
		}
	})
}

// TestRestoreReplaysWaveforms: Restore brings back the waveform seen at
// Save — including times before a field's alignment, which read the
// previous finals — and replaying the same k vectors reproduces every
// net's full waveform, which needs the previous-vector inputs packed
// below split input fields. A checkpoint restores more than once.
func TestRestoreReplaysWaveforms(t *testing.T) {
	forEach(t, func(t *testing.T, s sim, vecs [][]bool) {
		core := engine.CoreOf(s)
		apply(t, s, vecs[:4])
		core.Save()
		saved := waveform(s)
		want := waveforms(t, s, vecs[4:8])
		for round := 0; round < 2; round++ {
			label := fmt.Sprintf("restore %d", round)
			if err := core.Restore(); err != nil {
				t.Fatal(err)
			}
			if waveform(s) != saved {
				t.Fatalf("%s: restored waveform differs from the saved one", label)
			}
			sameWaves(t, label, waveforms(t, s, vecs[4:8]), want)
		}
	})
}

// TestQuarantineKeepsSimulating: quarantining the configured strategy —
// activity gating where the layout allows it, vector batching elsewhere
// — reverts to sequential, and the stream continues bit-identically to a
// twin that never left sequential execution.
func TestQuarantineKeepsSimulating(t *testing.T) {
	forEach(t, func(t *testing.T, s sim, vecs [][]bool) {
		core := engine.CoreOf(s)
		twin := core.Clone().(sim)
		strategy, err := core.ConfigureExec(shard.ActivityGated, 2)
		if err != nil {
			if strategy, err = core.ConfigureExec(shard.VectorBatch, 2); err != nil {
				t.Fatal(err)
			}
		}
		sameWaves(t, strategy.String(), waveforms(t, s, vecs[:6]), waveforms(t, twin, vecs[:6]))
		core.Quarantine()
		if core.ExecStrategy() != shard.Sequential || core.ExecPlan() != nil {
			t.Fatalf("after quarantine: strategy %v, plan %v", core.ExecStrategy(), core.ExecPlan())
		}
		sameWaves(t, "quarantined", waveforms(t, s, vecs[6:]), waveforms(t, twin, vecs[6:]))
	})
}

// TestRejectedConfigureKeepsStrategy: a strategy ConfigureExec refuses
// leaves the configured one in place. Activity gating is refused for the
// PC-set method (no gating) and for shift-eliminated layouts (Gate
// rejects them); an engine on vector batching keeps batching, with its
// streams still bit-identical to sequential. A gated engine asked for a
// strategy no compiled engine runs keeps its gating.
func TestRejectedConfigureKeepsStrategy(t *testing.T) {
	c, err := gen.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	vecs := vectors.Random(24, len(c.Inputs), 7).Bits
	for _, l := range layouts {
		s, err := l.build(c)
		if err != nil {
			t.Fatal(err)
		}
		core := engine.CoreOf(s)
		twin := core.Clone().(sim)
		want, err := core.ConfigureExec(shard.ActivityGated, 2)
		if err != nil {
			if want, err = core.ConfigureExec(shard.VectorBatch, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := core.ConfigureExec(shard.ActivityGated, 2); err == nil {
				t.Fatalf("%s: activity gating accepted after being refused", l.name)
			}
		}
		if _, err := core.ConfigureExec(shard.Native, 2); err == nil {
			t.Fatalf("%s: the native strategy accepted by a compiled core", l.name)
		}
		if got := core.ExecStrategy(); got != want {
			t.Fatalf("%s: strategy %v after a refused ConfigureExec, want %v", l.name, got, want)
		}
		if (core.ExecPlan() != nil) != (want == shard.ActivityGated) {
			t.Fatalf("%s: plan %v under %v", l.name, core.ExecPlan(), want)
		}
		for _, x := range []sim{s, twin} {
			if err := x.ResetConsistent(nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := core.ApplyStream(vecs); err != nil {
			t.Fatal(err)
		}
		apply(t, twin, vecs)
		if waveform(s) != waveform(twin) {
			t.Fatalf("%s: %v stream ends on a different waveform than sequential", l.name, want)
		}
		core.Close()
	}
}

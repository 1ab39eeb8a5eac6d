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
// below split input fields. The same holds when the state array is
// detached before the restore.
func TestRestoreReplaysWaveforms(t *testing.T) {
	forEach(t, func(t *testing.T, s sim, vecs [][]bool) {
		core := engine.CoreOf(s)
		apply(t, s, vecs[:4])
		core.Save()
		saved := waveform(s)
		want := waveforms(t, s, vecs[4:8])
		for _, detach := range []bool{false, true} {
			label := fmt.Sprintf("restore (detach %v)", detach)
			if detach {
				core.DetachState()
			}
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

// TestQuarantineKeepsSimulating: quarantining sharded execution reverts
// to sequential, and the stream continues bit-identically to a twin that
// never left sequential execution.
func TestQuarantineKeepsSimulating(t *testing.T) {
	forEach(t, func(t *testing.T, s sim, vecs [][]bool) {
		core := engine.CoreOf(s)
		twin := core.Clone().(sim)
		if _, err := core.ConfigureExec(shard.Sharded, 2); err != nil {
			t.Fatal(err)
		}
		sameWaves(t, "sharded", waveforms(t, s, vecs[:6]), waveforms(t, twin, vecs[:6]))
		if leaked := core.Quarantine(); leaked {
			t.Fatal("quarantine of a healthy engine leaked a worker")
		}
		if core.ExecStrategy() != shard.Sequential || core.ExecPlan() != nil {
			t.Fatalf("after quarantine: strategy %v, plan %v", core.ExecStrategy(), core.ExecPlan())
		}
		sameWaves(t, "quarantined", waveforms(t, s, vecs[6:]), waveforms(t, twin, vecs[6:]))
	})
}

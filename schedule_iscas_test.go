package udsim

import (
	"math/rand"
	"testing"
	"unsafe"

	"udsim/internal/program"
)

// compiledForms returns a compiled engine's emission-order sim program,
// its sequential execution form and the first scratch slot (every slot
// below it is persistent).
func compiledForms(t *testing.T, e Engine) (*program.Program, *program.Sequential, int32, int64) {
	t.Helper()
	switch x := e.(type) {
	case *ParallelSim:
		_, sim := x.s.Programs()
		return sim, x.s.Sequential(), x.s.Spec().ScratchStart, x.CodeBytes()
	case *PCSetSim:
		_, sim := x.s.Programs()
		return sim, x.s.Sequential(), x.s.Spec().ScratchStart, x.CodeBytes()
	}
	t.Fatalf("%T is not a compiled engine", e)
	return nil, nil, 0, 0
}

// TestSequentialFormISCAS is the sequential execution form's
// differential sweep: every profile circuit × every compiled layout ×
// with and without dead-store elimination. From random states, the form
// the engine runs must leave every persistent slot exactly as the
// emission-order program does, over two runs in a row (a vector loop).
func TestSequentialFormISCAS(t *testing.T) {
	layouts := []struct {
		label string
		tech  Technique
		opts  []Option
	}{
		{"parallel", TechParallel, nil},
		{"parallel-trim", TechParallel, []Option{WithTrimming()}},
		{"parallel-pt-trim", TechParallel, []Option{WithShiftElimination(PathTracing), WithTrimming()}},
		{"parallel-cb", TechParallel, []Option{WithShiftElimination(CycleBreaking)}},
		{"pcset", TechPCSet, nil},
	}
	r := rand.New(rand.NewSource(13))
	instr := int64(unsafe.Sizeof(program.Instr{}))
	for _, name := range ISCAS85Names() {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range layouts {
			for _, dse := range []bool{false, true} {
				opts := l.opts
				label := l.label
				if dse {
					opts = append(append([]Option(nil), opts...), WithDeadStoreElimination())
					label += "+dse"
				}
				e, err := Open(c, l.tech, opts...)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, label, err)
				}
				sim, seq, persistent, code := compiledForms(t, e)
				initSeq := e.(compiledEngine).unwrap().core.InitSequential()
				if want := int64(e.(Introspector).CodeSize())*instr + initSeq.Bytes() + seq.Bytes(); code != want {
					t.Errorf("%s/%s: CodeBytes = %d, want %d (both programs and both sequential forms)", name, label, code, want)
				}
				emit := make([]uint64, sim.NumVars)
				st := make([]uint64, seq.NumVars())
				for k := 0; k < 2; k++ {
					for i := range st {
						st[i] = r.Uint64() & sim.Mask()
					}
					copy(emit, st)
					for round := 0; round < 2; round++ {
						sim.Run(emit)
						seq.Run(st)
						for v := int32(0); v < persistent; v++ {
							if emit[v] != st[v] {
								t.Fatalf("%s/%s: state %d round %d: slot %s = %#x in emission order, %#x in the sequential form",
									name, label, k, round, sim.VarName(v), emit[v], st[v])
							}
						}
					}
				}
			}
		}
	}
}

// TestSequentialFormRunCounts reports the opcode runs of sim-stream's
// twenty engines (the ten profiles as parallel-pt-trim and pcset) as
// emitted and as scheduled. Run counts are deterministic: compiling
// twice gives the same schedule.
func TestSequentialFormRunCounts(t *testing.T) {
	var totals [2][2]int
	for _, name := range ISCAS85Names() {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		for k, l := range []struct {
			label string
			tech  Technique
			opts  []Option
		}{
			{"parallel-pt-trim", TechParallel, []Option{WithShiftElimination(PathTracing), WithTrimming()}},
			{"pcset", TechPCSet, nil},
		} {
			var runs [2]int
			for rep := range runs {
				e, err := Open(c, l.tech, l.opts...)
				if err != nil {
					t.Fatal(err)
				}
				sim, seq, _, _ := compiledForms(t, e)
				runs[rep] = seq.Runs()
				if rep == 0 {
					emitted := program.OpRuns(sim.Code)
					t.Logf("%-6s %-16s %6d instrs  %6d runs emitted  %5d scheduled", name, l.label, len(sim.Code), emitted, seq.Runs())
					totals[k][0] += emitted
					totals[k][1] += seq.Runs()
				}
			}
			if runs[0] != runs[1] {
				t.Errorf("%s/%s: %d runs, then %d on recompiling", name, l.label, runs[0], runs[1])
			}
		}
	}
	t.Logf("totals: parallel-pt-trim %d → %d runs, pcset %d → %d runs", totals[0][0], totals[0][1], totals[1][0], totals[1][1])
}

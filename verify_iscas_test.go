package udsim

import (
	"fmt"
	"os/exec"
	"reflect"
	"testing"

	"udsim/internal/gen"
	"udsim/internal/verify"
)

// verifyTechniques are the compiled techniques with statically verifiable
// programs: the PC-set method and every parallel-technique variant.
var verifyTechniques = []string{
	"pcset", "parallel", "parallel-trim",
	"parallel-pt", "parallel-pt-trim",
	"parallel-cb", "parallel-cb-trim",
}

// TestVerifyISCAS85 runs the static analyzer over every synthesized
// ISCAS-85 profile circuit under every compiled technique and requires a
// clean report: zero warnings and zero errors. This is the analyzer's
// soundness contract with the compilers — any finding here is a bug in
// one or the other.
func TestVerifyISCAS85(t *testing.T) {
	for _, name := range gen.Names() {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatalf("ISCAS85(%s): %v", name, err)
		}
		for _, tech := range verifyTechniques {
			t.Run(name+"/"+tech, func(t *testing.T) {
				e, err := NewEngine(tech, c)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				rep, err := Verify(e, VerifyOptions{})
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if !rep.Clean() {
					t.Fatalf("findings on %s/%s:\n%s", name, tech, rep)
				}
			})
		}
	}
}

// TestVerifyNarrowWords re-runs the analyzer with 8-bit logical words,
// which forces many-word fields, word-boundary carries and gap/low word
// classifications even on the small profile circuits.
func TestVerifyNarrowWords(t *testing.T) {
	names := []string{"c432", "c880"}
	ckts := make([]*Circuit, len(names))
	for i, name := range names {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		ckts[i] = c
	}
	for _, trim := range []bool{false, true} {
		for _, se := range []ShiftElimination{NoShiftElimination, PathTracing, CycleBreaking} {
			opts := []Option{WithWordBits(8), WithVerify()}
			if trim {
				opts = append(opts, WithTrimming())
			}
			if se != NoShiftElimination {
				opts = append(opts, WithShiftElimination(se))
			}
			name := fmt.Sprintf("trim=%v/se=%d", trim, se)
			t.Run(name, func(t *testing.T) {
				// WithVerify makes the compile itself fail on findings.
				for i, c := range ckts {
					if _, err := openParallelSim(c, opts...); err != nil {
						t.Fatalf("%s: %v", names[i], err)
					}
				}
			})
		}
	}
}

// TestVerifyCompileOption checks that the opt-in Verify compile option is
// actually wired through the facade (a clean compile succeeds with it on).
func TestVerifyCompileOption(t *testing.T) {
	c, err := ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openParallelSim(c, WithVerify(), WithTrimming()); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyStatsPopulated checks the report's census side: instruction
// counts and field utilization must be filled in for parallel compiles.
func TestVerifyStatsPopulated(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine("parallel-trim", c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(e, VerifyOptions{ReportDead: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.SimInstrs == 0 {
		t.Error("SimInstrs not populated")
	}
	if rep.Stats.FieldCapacityBits == 0 || rep.Stats.FieldUsedBits == 0 {
		t.Error("field utilization not populated")
	}
	if u := rep.Stats.WordUtilization(); u <= 0 || u > 1 {
		t.Errorf("word utilization %v out of (0,1]", u)
	}
	if rep.Stats.LivenessPasses < 1 {
		t.Error("liveness fixpoint pass count not populated")
	}
	if rep.Stats.LiveInSlots == 0 {
		t.Error("live-in slot count not populated")
	}
	for _, f := range rep.Findings {
		if f.Rule != verify.RuleDead {
			t.Errorf("unexpected non-V005 finding with ReportDead: %s", f)
		}
	}
}

// TestVerifyISCAS85Sharded re-runs the analyzer on engines configured
// for stream execution at 2 and 4 workers: the parallel technique
// activity-gated, which attaches its leveled plan so rule V012
// (happens-before race proof) checks the leveling on every profile
// circuit, and the PC-set method on vector batching. Any finding means
// the planner and the analyzer disagree about what a legal leveling is.
func TestVerifyISCAS85Sharded(t *testing.T) {
	names := gen.Names()
	if testing.Short() {
		names = []string{"c432", "c6288"}
	}
	for _, name := range names {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatalf("ISCAS85(%s): %v", name, err)
		}
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/parallel/w%d", name, workers), func(t *testing.T) {
				e, err := openParallelSim(c, WithExec(ExecActivityGated, workers))
				if err != nil {
					t.Fatalf("Open parallel: %v", err)
				}
				defer e.Close()
				rep, err := Verify(e, VerifyOptions{})
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if !rep.Clean() {
					t.Fatalf("findings:\n%s", rep)
				}
			})
			t.Run(fmt.Sprintf("%s/pcset/w%d", name, workers), func(t *testing.T) {
				e, err := openPCSetSim(c, nil, WithExec(ExecVectorBatch, workers))
				if err != nil {
					t.Fatalf("Open pcset: %v", err)
				}
				defer e.Close()
				rep, err := Verify(e, VerifyOptions{})
				if err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if !rep.Clean() {
					t.Fatalf("findings:\n%s", rep)
				}
			})
		}
	}
}

// TestWrappedEnginesExposePrograms: Programs, Verify, ValidateCodegen
// and ResubResultOf see through the guarded and native wrappers — the
// engines udserve builds — to the compiled engine underneath: the same
// programs as the plain twin and clean reports, for both techniques.
func TestWrappedEnginesExposePrograms(t *testing.T) {
	c, err := ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	wrappers := []struct {
		name string
		opt  Option
	}{{"guarded", WithGuard(DefaultGuardPolicy())}}
	if _, err := exec.LookPath("go"); err == nil {
		wrappers = append(wrappers, struct {
			name string
			opt  Option
		}{"native", WithNativeBackend()})
	}
	for _, tech := range []Technique{TechParallel, TechPCSet} {
		plain, err := Open(c, tech)
		if err != nil {
			t.Fatal(err)
		}
		wantInit, wantSim, ok := Programs(plain)
		if !ok {
			t.Fatalf("%v: plain engine has no programs", tech)
		}
		for _, w := range wrappers {
			label := fmt.Sprintf("%v/%s", tech, w.name)
			e, err := Open(c, tech, w.opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			defer e.(Closer).Close()
			init, sim, ok := Programs(e)
			if !ok {
				t.Fatalf("%s: Programs reported no compiled programs", label)
			}
			if !reflect.DeepEqual(init.Code, wantInit.Code) || !reflect.DeepEqual(sim.Code, wantSim.Code) {
				t.Fatalf("%s: programs differ from the plain engine's", label)
			}
			rep, err := Verify(e, VerifyOptions{})
			if err != nil || !rep.Clean() {
				t.Fatalf("%s: Verify = %v, %v; want a clean report", label, rep, err)
			}
			rep, err = ValidateCodegen(e)
			if err != nil || !rep.Clean() {
				t.Fatalf("%s: ValidateCodegen = %v, %v; want a clean report", label, rep, err)
			}
			if ResubResultOf(e) != nil {
				t.Fatalf("%s: resubstitution result without WithResubstitution", label)
			}
		}
	}
}

package udsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"udsim/internal/bench85"
	"udsim/internal/circuit"
	"udsim/internal/gen"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/vectors"
	"udsim/internal/verify"
)

// resubFacadeCircuit exercises every fate in one small netlist: a
// duplicated XOR cone (merge + stripping), an XNOR complement pair
// (shared inverter), and a proven constant.
func resubFacadeCircuit() *Circuit {
	b := NewBuilder("facade")
	a := b.Input("a")
	x := b.Input("x")
	d1 := b.Gate(Xor, "d1", a, x)
	na := b.Gate(Not, "na", a)
	nx := b.Gate(Not, "nx", x)
	t1 := b.Gate(And, "t1", a, nx)
	t2 := b.Gate(And, "t2", na, x)
	d2 := b.Gate(Or, "d2", t1, t2)
	nd := b.Gate(Xnor, "nd", a, x)
	k := b.Gate(And, "k", a, na)
	o1 := b.Gate(Buf, "o1", d1)
	o2 := b.Gate(Buf, "o2", d2)
	o3 := b.Gate(And, "o3", nd, a)
	o4 := b.Gate(Or, "o4", k, x)
	b.Output(o1)
	b.Output(o2)
	b.Output(o3)
	b.Output(o4)
	return b.MustBuild()
}

// TestResubOpenFacade drives WithResubstitution through Open: the engine
// must keep speaking the original circuit's net IDs while simulating the
// optimized netlist.
func TestResubOpenFacade(t *testing.T) {
	c := resubFacadeCircuit()
	for _, technique := range []Technique{TechParallel, TechPCSet} {
		t.Run(technique.String(), func(t *testing.T) {
			e, err := Open(c, technique, WithResubstitution())
			if err != nil {
				t.Fatal(err)
			}
			defer e.(Closer).Close()
			if name := e.EngineName(); !strings.HasSuffix(name, "+resub") {
				t.Errorf("engine name %q lacks +resub", name)
			}
			res := ResubResultOf(e)
			if res == nil || !res.Changed() {
				t.Fatal("resubstitution result missing or no-op")
			}
			if e.Circuit() != res.Original {
				t.Error("Circuit() does not return the original netlist")
			}

			plain, err := Open(c, technique)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.(Closer).Close()
			orig := res.Original
			vec := make([]bool, len(orig.Inputs))
			for trial := 0; trial < 16; trial++ {
				for i := range vec {
					vec[i] = trial>>uint(i)&1 == 1
				}
				if err := e.Apply(vec); err != nil {
					t.Fatal(err)
				}
				if err := plain.Apply(vec); err != nil {
					t.Fatal(err)
				}
				for id := range orig.Nets {
					n := NetID(id)
					if _, _, _, _, ok := res.Resolve(n); !ok {
						// Stripped: unobservable by contract.
						if v, obs := e.(Tracer).ValueAt(n, e.Depth()); obs || v {
							t.Errorf("stripped net %s observable (%v, %v)", orig.Nets[id].Name, v, obs)
						}
						continue
					}
					if e.Final(n) != plain.Final(n) {
						t.Fatalf("trial %d: net %s final %v, plain %v",
							trial, orig.Nets[id].Name, e.Final(n), plain.Final(n))
					}
				}
			}
		})
	}
}

// TestResubFacadeHistory checks waveform resolution on the parallel
// engine: constants are flat, complemented merges read back inverted,
// stripped nets return nil.
func TestResubFacadeHistory(t *testing.T) {
	c := resubFacadeCircuit()
	p, err := openParallelSim(c, WithResubstitution())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Resub()
	if err := p.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply([]bool{true, true}); err != nil {
		t.Fatal(err)
	}
	orig := res.Original
	kID, _ := orig.NetByName("k")
	for i, v := range p.History(kID) {
		if v {
			t.Fatalf("constant net k not flat at t=%d", i)
		}
	}
	ndID, _ := orig.NetByName("nd")
	d1ID, _ := orig.NetByName("d1")
	hn, hd := p.History(ndID), p.History(d1ID)
	if len(hn) != len(hd) {
		t.Fatalf("waveform lengths differ: %d vs %d", len(hn), len(hd))
	}
	for i := range hn {
		if hn[i] == hd[i] {
			t.Fatalf("complemented merge nd not inverted from d1 at t=%d", i)
		}
	}
	t1ID, _ := orig.NetByName("t1")
	if h := p.History(t1ID); h != nil {
		t.Errorf("stripped net t1 has a waveform: %v", h)
	}
}

// TestResubMonitorTranslation: PC-set monitors name original nets; a
// merged net monitors its surviving representative, while nets the pass
// eliminated outright are an error.
func TestResubMonitorTranslation(t *testing.T) {
	c := resubFacadeCircuit()
	norm := c.Normalize()
	d2ID, _ := norm.NetByName("d2")
	aID, _ := norm.NetByName("a")
	// Monitoring the input alongside d2 puts the PRINT group's minimum
	// at level 0, so zero-insertion makes the merged net's surviving
	// representative observable at every time step.
	e, err := Open(c, TechPCSet, WithResubstitution(), WithMonitor(aID, d2ID))
	if err != nil {
		t.Fatalf("monitoring a merged net: %v", err)
	}
	if err := e.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply([]bool{true, false}); err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= e.Depth(); tt++ {
		if _, ok := e.(Tracer).ValueAt(d2ID, tt); !ok {
			t.Fatalf("monitored merged net d2 unobservable at t=%d", tt)
		}
	}
	e.(Closer).Close()

	for _, name := range []string{"k", "t1"} {
		id, _ := norm.NetByName(name)
		if _, err := Open(c, TechPCSet, WithResubstitution(), WithMonitor(id)); err == nil {
			t.Errorf("monitoring eliminated net %s did not error", name)
		}
	}
}

// TestResubRejectedForInterpreted: the pass applies to compiled
// techniques only.
func TestResubRejectedForInterpreted(t *testing.T) {
	c := resubFacadeCircuit()
	for _, technique := range []Technique{TechEvent3, TechEvent2, TechLCC} {
		if _, err := Open(c, technique, WithResubstitution()); err == nil {
			t.Errorf("%v accepted WithResubstitution", technique)
		}
	}
}

// TestResubGuardComposition: the guarded wrapper inherits the remap by
// delegation and ResubResultOf unwraps it.
func TestResubGuardComposition(t *testing.T) {
	c := resubFacadeCircuit()
	e, err := Open(c, TechParallel, WithResubstitution(), WithGuard(GuardPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.(Closer).Close()
	if _, ok := e.(*GuardedSim); !ok {
		t.Fatalf("expected a guarded engine, got %T", e)
	}
	if ResubResultOf(e) == nil {
		t.Error("ResubResultOf did not unwrap the guarded engine")
	}
	if err := e.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply([]bool{true, true}); err != nil {
		t.Fatal(err)
	}
}

// resubISCASTechniques are the compiled techniques the optimizer is
// validated under on the benchmark circuits.
var resubISCASTechniques = []string{"pcset", "parallel"}

// TestResubISCAS85 is the acceptance sweep: every profile circuit is
// optimized once, the certificate is fully replayed (V013/V014), and for
// both compiled techniques the optimized engine must be bit-identical to
// the unoptimized one on the verify vector suite with V001-V011 clean on
// the rewritten netlist's compiled programs.
func TestResubISCAS85(t *testing.T) {
	names := gen.Names()
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			c, err := ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Resubstitute(c, ResubConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Changed() {
				t.Fatalf("%s: optimizer found nothing", name)
			}
			if res.Cert.GatesAfter >= res.Cert.GatesBefore {
				t.Errorf("%s: no gate reduction (%d -> %d)",
					name, res.Cert.GatesBefore, res.Cert.GatesAfter)
			}
			if rep := VerifyRewrite(res); !rep.Clean() {
				t.Fatalf("%s: certificate replay (V013/V014) not clean:\n%s", name, rep)
			}
			vecs := vectors.Random(200, len(res.Original.Inputs), 1990)
			for _, tech := range resubISCASTechniques {
				plain, opt, err := resubEnginePair(res.Original, res.Optimized, tech)
				if err != nil {
					t.Fatal(err)
				}
				// The paper's payoff: a shrinking instruction stream. Gate
				// count always drops (asserted above), but PC-set sizes can
				// shift when readers move to a shallower representative, so
				// the hard requirement is pinned to the heavily redundant
				// profiles; elsewhere the census is informational.
				switch name {
				case "c499", "c1355", "c6288":
					if opt.CodeSize() >= plain.CodeSize() {
						t.Errorf("%s/%s: no instruction reduction (%d -> %d)",
							name, tech, plain.CodeSize(), opt.CodeSize())
					}
				default:
					if opt.CodeSize() >= plain.CodeSize() {
						t.Logf("%s/%s: instruction stream grew: %d -> %d",
							name, tech, plain.CodeSize(), opt.CodeSize())
					}
				}
				if err := resubBitIdentical(res, plain, opt, vecs); err != nil {
					t.Fatalf("%s/%s: %v", name, tech, err)
				}
				if rep := verify.Check(opt.Spec(), verify.Options{}); !rep.Clean() {
					t.Fatalf("%s/%s: optimized programs not verify-clean:\n%s", name, tech, rep)
				}
			}
		})
	}
}

// TestResubIdempotentISCAS: a second pass over an optimized benchmark
// netlist must be a byte-identical no-op.
func TestResubIdempotentISCAS(t *testing.T) {
	for _, name := range []string{"c432", "c499"} {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := Resubstitute(c, ResubConfig{})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Resubstitute(r1.Optimized, ResubConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var w1, w2 bytes.Buffer
		if err := bench85.Write(&w1, r1.Optimized); err != nil {
			t.Fatal(err)
		}
		if err := bench85.Write(&w2, r2.Optimized); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("%s: second pass changed the optimized netlist", name)
		}
	}
}

// TestResubOpenISCAS drives the full facade path — Open with
// WithResubstitution, including its construction-time cross-check and
// implied verification — on a representative subset.
func TestResubOpenISCAS(t *testing.T) {
	names := []string{"c432", "c499", "c6288"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		for _, technique := range []Technique{TechParallel, TechPCSet} {
			t.Run(fmt.Sprintf("%s/%v", name, technique), func(t *testing.T) {
				c, err := ISCAS85(name)
				if err != nil {
					t.Fatal(err)
				}
				e, err := Open(c, technique, WithResubstitution())
				if err != nil {
					t.Fatal(err)
				}
				defer e.(Closer).Close()
				rep, err := Verify(e, VerifyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("optimized engine not verify-clean:\n%s", rep)
				}
				// Spot-check primary outputs against the plain engine.
				plain, err := Open(c, technique)
				if err != nil {
					t.Fatal(err)
				}
				defer plain.(Closer).Close()
				vecs := vectors.Random(50, len(e.Circuit().Inputs), 7)
				for v, vec := range vecs.Bits {
					if err := e.Apply(vec); err != nil {
						t.Fatal(err)
					}
					if err := plain.Apply(vec); err != nil {
						t.Fatal(err)
					}
					for _, po := range e.Circuit().Outputs {
						if e.Final(po) != plain.Final(po) {
							t.Fatalf("vector %d: output %s differs", v, e.Circuit().Net(po).Name)
						}
					}
				}
			})
		}
	}
}

// resubISCASEngine is the compiled-engine slice the sweep drives.
type resubISCASEngine interface {
	CodeSize() int
	ResetConsistent(inputs []bool) error
	ApplyVector(vec []bool) error
	Final(n circuit.NetID) bool
	Spec() *verify.Spec
}

// resubEnginePair compiles the original and optimized netlists with one
// technique.
func resubEnginePair(orig, opt *circuit.Circuit, tech string) (resubISCASEngine, resubISCASEngine, error) {
	build := func(target *circuit.Circuit) (resubISCASEngine, error) {
		if tech == "pcset" {
			return pcset.Compile(target, nil)
		}
		return parsim.Compile(target, parsim.Config{WordBits: 32})
	}
	a, err := build(orig)
	if err != nil {
		return nil, nil, err
	}
	b, err := build(opt)
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// resubBitIdentical replays the vector suite through both engines and
// compares every surviving original net's settled value through the
// fate map.
func resubBitIdentical(res *ResubResult, plain, opt resubISCASEngine, vecs *vectors.Set) error {
	orig := res.Original
	optID := make([]circuit.NetID, orig.NumNets())
	for id := range orig.Nets {
		n := circuit.NetID(id)
		target, _, isConst, _, ok := res.Resolve(n)
		optID[id] = circuit.NoNet
		if !ok || isConst {
			continue
		}
		tid, found := res.Optimized.NetByName(orig.Net(target).Name)
		if !found {
			return fmt.Errorf("fate target %q missing", orig.Net(target).Name)
		}
		optID[id] = tid
	}
	if err := plain.ResetConsistent(nil); err != nil {
		return err
	}
	if err := opt.ResetConsistent(nil); err != nil {
		return err
	}
	for v, vec := range vecs.Bits {
		if err := plain.ApplyVector(vec); err != nil {
			return err
		}
		if err := opt.ApplyVector(vec); err != nil {
			return err
		}
		for id := range orig.Nets {
			n := circuit.NetID(id)
			_, invert, isConst, constVal, ok := res.Resolve(n)
			if !ok {
				continue
			}
			got := constVal
			if !isConst {
				got = opt.Final(optID[id]) != invert
			}
			if want := plain.Final(n); got != want {
				return fmt.Errorf("vector %d: net %s resolves to %v, plain engine settles %v",
					v, orig.Nets[id].Name, got, want)
			}
		}
	}
	return nil
}

package validate

import (
	"testing"

	"udsim/internal/codegen/ir"
	"udsim/internal/gen"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/verify"
)

// TestISCASSweep is the acceptance gate: on every profile circuit, both
// compiled techniques' programs must pass the static verifier and their
// emissions must lift back clean and all-exact (V016).
func TestISCASSweep(t *testing.T) {
	for _, name := range gen.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := gen.ISCAS85(name)
			if err != nil {
				t.Fatal(err)
			}

			type compile struct {
				tech  string
				units []ir.Source
				spec  *verify.Spec
			}
			var compiles []compile

			par, err := parsim.Compile(c, parsim.Config{WordBits: 64})
			if err != nil {
				t.Fatal(err)
			}
			pi, ps := par.Programs()
			compiles = append(compiles, compile{"parallel",
				[]ir.Source{{Name: "initvec", Prog: pi}, {Name: "simvec", Prog: ps}}, par.Spec()})

			pc, err := pcset.Compile(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			qi, qs := pc.Programs()
			compiles = append(compiles, compile{"pcset",
				[]ir.Source{{Name: "initvec", Prog: qi}, {Name: "simvec", Prog: qs}}, pc.Spec()})

			for _, cp := range compiles {
				res, err := CheckUnits("gensim", cp.units, cp.spec)
				if err != nil {
					t.Fatalf("%s: %v", cp.tech, err)
				}
				if err := res.Report.Err(); err != nil {
					t.Fatalf("%s: not clean: %v", cp.tech, err)
				}
				if res.Semantic != 0 || res.Exact == 0 {
					t.Fatalf("%s: want all-exact decisions, got %d exact / %d semantic",
						cp.tech, res.Exact, res.Semantic)
				}
			}
		})
	}
}

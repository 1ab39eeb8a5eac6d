package udsim

import (
	"fmt"
	"testing"

	"udsim/internal/gen"
	"udsim/internal/vectors"
)

// deadStoreVariants are the compile configurations the eliminator is
// validated under. The cycle-breaking variant is the interesting one:
// its widened bit-fields are where most provably-dead stores come from.
var deadStoreVariants = []struct {
	name string
	opts []Option
}{
	{"parallel", nil},
	{"parallel-trim", []Option{WithTrimming()}},
	{"parallel-cb-trim", []Option{WithShiftElimination(CycleBreaking), WithTrimming()}},
	{"parallel-trim-w8", []Option{WithWordBits(8), WithTrimming()}},
	{"parallel-trim-w16", []Option{WithWordBits(16), WithTrimming()}},
}

// TestDeadStoreEliminationISCAS85 builds each profile circuit twice —
// once plain, once with WithDeadStoreElimination — and replays the same
// vector stream through both, requiring every net's settled value to
// match on every vector. This is the end-to-end guarantee behind the
// optimizer: the stores the liveness fixpoint removes are unobservable.
func TestDeadStoreEliminationISCAS85(t *testing.T) {
	names := gen.Names()
	if testing.Short() {
		names = []string{"c432", "c1908"}
	}
	for _, name := range names {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatalf("ISCAS85(%s): %v", name, err)
		}
		vecs := vectors.Random(12, len(c.Inputs), 1990)
		for _, v := range deadStoreVariants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				plain, err := openParallelSim(c, v.opts...)
				if err != nil {
					t.Fatal(err)
				}
				opt, err := openParallelSim(c, append(v.opts[:len(v.opts):len(v.opts)],
					WithDeadStoreElimination())...)
				if err != nil {
					t.Fatal(err)
				}
				if plain.CodeSize() < opt.CodeSize() {
					t.Fatalf("elimination grew the code: %d -> %d",
						plain.CodeSize(), opt.CodeSize())
				}
				compareParallel(t, plain, opt, vecs, 0)
				// The stripped program must still satisfy the full analyzer.
				rep, err := Verify(opt, VerifyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("stripped engine not clean:\n%s", rep)
				}
			})
		}
		t.Run(name+"/pcset", func(t *testing.T) {
			plain, err := openPCSetSim(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := openPCSetSim(c, nil, WithDeadStoreElimination())
			if err != nil {
				t.Fatal(err)
			}
			comparePCSet(t, plain, opt, vecs, 0)
			rep, err := Verify(opt, VerifyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("stripped engine not clean:\n%s", rep)
			}
		})
	}
}

// TestDeadStoreEliminationSharded checks the eliminator composes with
// the activity-gated strategy's leveled plan: the stripped program is
// re-partitioned, the plan passes the race rules, and the stream stays
// bit-identical to a plain sequential engine. (The name predates the
// retirement of level-sharded execution; the gated plan is what is left
// of it.)
func TestDeadStoreEliminationSharded(t *testing.T) {
	names := []string{"c1908", "c6288"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		c, err := ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		vecs := gatingStream(c, 7)
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				plain, err := openParallelSim(c, WithTrimming())
				if err != nil {
					t.Fatal(err)
				}
				opt, err := openParallelSim(c,
					WithTrimming(),
					WithDeadStoreElimination(),
					WithExec(ExecActivityGated, workers))
				if err != nil {
					t.Fatal(err)
				}
				defer opt.Close()
				_, sim := opt.core.Programs()
				if got := opt.core.ExecPlan().Stats().Instrs; got != len(sim.Code) {
					t.Fatalf("plan holds %d instructions, stripped program %d", got, len(sim.Code))
				}
				compareParallel(t, plain, opt, vecs, workers)
				rep, err := Verify(opt, VerifyOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Clean() {
					t.Fatalf("stripped gated engine not clean:\n%s", rep)
				}
			})
		}
	}
}

// TestDeadStoreEliminationExplicit drives the explicit method on an
// already-built engine and checks the removal count matches the code
// shrinkage.
func TestDeadStoreEliminationExplicit(t *testing.T) {
	c, err := ISCAS85("c1908")
	if err != nil {
		t.Fatal(err)
	}
	s, err := openParallelSim(c, WithShiftElimination(CycleBreaking), WithTrimming())
	if err != nil {
		t.Fatal(err)
	}
	before := s.CodeSize()
	removed, err := s.EliminateDeadStores()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("cycle-breaking c1908 should have removable stores")
	}
	if got := before - s.CodeSize(); got != removed {
		t.Fatalf("reported %d removed, code shrank by %d", removed, got)
	}
	// A second run finds nothing: the fixpoint is idempotent.
	again, err := s.EliminateDeadStores()
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("second elimination removed %d more stores", again)
	}
}

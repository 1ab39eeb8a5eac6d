package engine

import (
	"context"
	"fmt"
	"testing"

	"udsim/internal/circuit"
	"udsim/internal/levelize"
	"udsim/internal/logic"
	"udsim/internal/program"
	"udsim/internal/shard"
	"udsim/internal/verify"
)

// bufTech is the smallest technique the core can run: one input
// buffered to one output, with empty programs. It lets a test read which
// path a stream took from the core's own fields.
type bufTech struct{ Core }

func (b *bufTech) Apply(_ context.Context, inputs []bool) error {
	b.WriteInputs(inputs)
	return nil
}

func (b *bufTech) ResetConsistent(inputs []bool) error {
	_, err := b.Settle(inputs)
	return err
}

func (b *bufTech) Fork() Technique { n := *b; return &n }

func (b *bufTech) Spec() *verify.Spec { return nil }

func newBufTech(t *testing.T) *bufTech {
	t.Helper()
	cb := circuit.NewBuilder("buf")
	in := cb.Input("a")
	cb.Output(cb.Gate(logic.Buf, "y", in))
	c := cb.MustBuild()
	a, err := levelize.Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	empty := func() *program.Program { return &program.Program{WordBits: 64, NumVars: 2} }
	b := &bufTech{}
	if err := b.Setup(b, Parts{
		Label: "buf", Circuit: c, Analysis: a,
		Init: empty(), Sim: empty(), ScratchStart: 2,
		Inputs: []InputField{{Base: 0, Words: 1}},
		Finals: make([]FinalBit, c.NumNets()),
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAutoPathIsPure pins what ExecAuto executes as a pure function of
// the worker count and the stream length: Auto resolves to vector
// batching on more than one worker and to sequential execution on one,
// and a stream is split into blocks exactly when the pool has at least
// two workers and the stream holds at least two vectors per worker.
func TestAutoPathIsPure(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		for _, n := range []int{0, 1, 2*workers - 1, 2 * workers, 2*workers + 1, 5 * workers} {
			t.Run(fmt.Sprintf("w%d/n%d", workers, n), func(t *testing.T) {
				b := newBufTech(t)
				defer b.Close()
				got, err := b.ConfigureExec(shard.Auto, workers)
				if err != nil {
					t.Fatal(err)
				}
				want := shard.Sequential
				if workers > 1 {
					want = shard.VectorBatch
				}
				if got != want || b.ExecStrategy() != want {
					t.Fatalf("Auto resolved to %v (strategy %v), want %v", got, b.ExecStrategy(), want)
				}
				vecs := make([][]bool, n)
				for i := range vecs {
					vecs[i] = []bool{i == n-1}
				}
				if err := b.ApplyStream(vecs); err != nil {
					t.Fatal(err)
				}
				split := workers > 1 && n >= 2*workers
				if (len(b.clones) > 0) != split {
					t.Fatalf("stream split into %d clone blocks, want split=%v", len(b.clones), split)
				}
				if n > 0 && b.PrevPI[0] != vecs[n-1][0] {
					t.Fatalf("stream ended on input %v, last vector %v", b.PrevPI[0], vecs[n-1][0])
				}
			})
		}
	}
}

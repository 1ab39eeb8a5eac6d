package parsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"udsim/internal/align"
	"udsim/internal/circuit"
	"udsim/internal/ckttest"
	"udsim/internal/shard"
	"udsim/internal/vectors"
)

// gatedStream builds a vector stream that exercises the gating paths:
// random vectors, exact repeats (everything skippable), and single-bit
// deltas (most of the circuit skippable).
func gatedStream(r *rand.Rand, numPI, n int) [][]bool {
	vecs := make([][]bool, 0, n)
	cur := make([]bool, numPI)
	for i := range cur {
		cur[i] = r.Intn(2) == 1
	}
	for len(vecs) < n {
		switch r.Intn(4) {
		case 0: // fresh random vector
			for i := range cur {
				cur[i] = r.Intn(2) == 1
			}
		case 1: // exact repeat
		default: // single-bit delta
			if numPI > 0 {
				cur[r.Intn(numPI)] = !cur[r.Intn(numPI)]
			}
		}
		vecs = append(vecs, append([]bool(nil), cur...))
	}
	return vecs
}

// TestGatedMatchesSequential: the complete waveform of every net over a
// stream with repeats and single-bit deltas is identical between
// sequential execution and the activity-gated strategy, with and
// without level fusion, across worker counts.
func TestGatedMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := ckttest.Random(r, 30, 5)
		numPI := len(c.Normalize().Inputs)
		vecs := gatedStream(r, numPI, 12)
		for _, cfg := range []Config{{}, {Trim: true}, {WordBits: 8, Trim: true}} {
			ref, err := Compile(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := applyAll(t, ref, vecs)
			for _, fuse := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					s, err := Compile(c, cfg)
					if err != nil {
						t.Fatal(err)
					}
					s.SetLevelFusion(fuse)
					if _, err := s.ConfigureExec(shard.ActivityGated, workers); err != nil {
						t.Fatalf("ConfigureExec(gated, %d): %v", workers, err)
					}
					got := applyAll(t, s, vecs)
					s.Close()
					for j := range want {
						if got[j] != want[j] {
							t.Logf("seed %d fuse=%v workers=%d: waveform diverges at %d", seed, fuse, workers, j)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestGatedRejectsAligned: shift-eliminated layouts break the settled-
// field flatten rule, so configuring the gated strategy must fail.
func TestGatedRejectsAligned(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := ckttest.Random(r, 20, 4)
	norm, cfg := alignedConfig(t, c, align.MethodPathTrace, 32, false)
	s, err := Compile(norm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConfigureExec(shard.ActivityGated, 2); err == nil {
		t.Fatal("ConfigureExec(ActivityGated) accepted a shift-eliminated compile")
	}
}

// TestGatedSkipsAndStaysCorrect drives a repeated vector and checks that
// (a) the strategy actually skips work and (b) skipped outputs stay
// readable and correct — the per-net dirty bits must not leak stale
// waveforms into Final or ValueAt.
func TestGatedSkipsAndStaysCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := ckttest.Random(r, 40, 6)
	s, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConfigureExec(shard.ActivityGated, 2); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]bool, len(s.Circuit().Inputs))
	for i := range vec {
		vec[i] = r.Intn(2) == 1
	}
	if err := s.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := ref.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if err := s.ApplyVector(vec); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyVector(vec); err != nil {
			t.Fatal(err)
		}
	}
	// After the first (run-everything) vector the repeats change no
	// primary input, so every gated group must be idle.
	g := s.gate
	for gi := range g.groupActive {
		if g.groupActive[gi] {
			t.Fatalf("group %d active on a repeated vector", gi)
		}
	}
	for n := 0; n < c.Normalize().NumNets(); n++ {
		for tm := 0; tm <= s.Depth(); tm++ {
			if s.ValueAt(circuit.NetID(n), tm) != ref.ValueAt(circuit.NetID(n), tm) {
				t.Fatalf("net %d time %d diverges after skipped vectors", n, tm)
			}
		}
	}
}

// TestGatedInvalidation: checkpoint restore and ResetConsistent must
// force the next vector to run everything.
func TestGatedInvalidation(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := ckttest.Random(r, 25, 5)
	s, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConfigureExec(shard.ActivityGated, 2); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vecs := vectors.Random(6, len(s.Circuit().Inputs), 11).Bits
	if err := s.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyVector(vecs[0]); err != nil {
		t.Fatal(err)
	}
	s.Save()
	if err := s.ApplyVector(vecs[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(); err != nil {
		t.Fatal(err)
	}
	if s.gate.valid {
		t.Fatal("Restore left the gating state valid")
	}
	// Replay from the checkpoint: results must match a fresh sequential
	// replay of the same prefix.
	ref, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range vecs[:2] {
		if err := ref.ApplyVector(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ApplyVector(vecs[1]); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < c.Normalize().NumNets(); n++ {
		if s.Final(circuit.NetID(n)) != ref.Final(circuit.NetID(n)) {
			t.Fatalf("net %d diverges after restore+replay", n)
		}
	}
}

// BenchmarkGatedSteadyState pins the allocation-free steady state of the
// gated strategy: repeated and single-bit-delta vectors after warmup.
func BenchmarkGatedSteadyState(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	c := ckttest.Random(r, 60, 6)
	s, err := Compile(c, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.ConfigureExec(shard.ActivityGated, 2); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.ResetConsistent(nil); err != nil {
		b.Fatal(err)
	}
	vec := make([]bool, len(s.Circuit().Inputs))
	if err := s.ApplyVector(vec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(vec) > 0 {
			vec[i%len(vec)] = !vec[i%len(vec)]
		}
		if err := s.ApplyVector(vec); err != nil {
			b.Fatal(err)
		}
	}
}

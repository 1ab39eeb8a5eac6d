package parsim

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"udsim/internal/align"
	"udsim/internal/circuit"
	"udsim/internal/ckttest"
	"udsim/internal/obs"
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
// sequential execution and the activity-gated strategy, across worker
// counts.
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
			for _, workers := range []int{1, 2, 4} {
				s, err := Compile(c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.ConfigureExec(shard.ActivityGated, workers); err != nil {
					t.Fatalf("ConfigureExec(gated, %d): %v", workers, err)
				}
				got := applyAll(t, s, vecs)
				s.Close()
				for j := range want {
					if got[j] != want[j] {
						t.Logf("seed %d workers=%d: waveform diverges at %d", seed, workers, j)
						return false
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

// FuzzGatedMatchesSequential fuzzes the per-vector executor choice and
// deferred flattening. The circuit seed picks a random circuit and
// compile configuration, the stream seed and the toggle byte a vector
// stream whose inputs each flip with probability toggle/255 — from exact
// repeats to complements, so streams cross the sequential-form threshold
// in both directions — and the mode byte leaves the choice to the cost
// model or pins every vector after the first to the level loop,
// unguarded or guarded. The stride byte sets the read stride k (1 to 8):
// every net's complete waveform must equal sequential execution's after
// every k-th vector and the last, at 1 and 2 workers, so flattening left
// pending by idle vectors spans the vectors in between. Finals, which
// need no flattening, are compared after every vector.
func FuzzGatedMatchesSequential(f *testing.F) {
	for mode := uint8(0); mode < 4; mode++ {
		f.Add(int64(mode), int64(100+mode), uint8(3), mode, uint8(0))
		f.Add(int64(10+mode), int64(200+mode), uint8(40), mode, uint8(0))
	}
	f.Add(int64(7), int64(7), uint8(0), uint8(1), uint8(0))
	f.Add(int64(8), int64(8), uint8(255), uint8(2), uint8(0))
	f.Add(int64(7), int64(7), uint8(0), uint8(1), uint8(3))
	for mode := uint8(0); mode < 4; mode++ {
		f.Add(int64(20+mode), 300+int64(mode), uint8(3), mode, 2+mode)
		f.Add(int64(30+mode), 400+int64(mode), uint8(12), mode, 4+mode)
	}
	f.Fuzz(func(t *testing.T, cseed, vseed int64, toggle, mode, stride uint8) {
		k := 1 + int(stride%8)
		r := rand.New(rand.NewSource(cseed))
		c := ckttest.Random(r, 20+r.Intn(40), 3+r.Intn(8))
		cfg := []Config{{}, {Trim: true}, {WordBits: 8, Trim: true}}[r.Intn(3)]
		numPI := len(c.Normalize().Inputs)
		vr := rand.New(rand.NewSource(vseed))
		vecs := make([][]bool, 16)
		cur := make([]bool, numPI)
		for i := range cur {
			cur[i] = vr.Intn(2) == 1
		}
		for v := range vecs {
			for i := range cur {
				if v > 0 && vr.Intn(255) < int(toggle) {
					cur[i] = !cur[i]
				}
			}
			vecs[v] = append([]bool(nil), cur...)
		}
		var ctx context.Context
		if mode/2%2 == 1 {
			ctx = context.Background()
		}
		ref, err := Compile(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := applyGated(t, ref, vecs, nil, k)
		for _, workers := range []int{1, 2} {
			s, err := Compile(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ConfigureExec(shard.ActivityGated, workers); err != nil {
				t.Fatal(err)
			}
			pinned := mode%2 == 1
			if pinned {
				s.gate.seqCost = math.MaxInt64
			}
			ob := obs.New(obs.Config{})
			s.SetObserver(ob)
			g := s.gate
			got, deferred := applyGated(t, s, vecs, ctx, k)
			s.Close()
			if mix := ob.Snapshot().GatedVectors; pinned && (mix[obs.GatedSequential] != 1 || mix[obs.GatedCaller] != int64(len(vecs)-1)) {
				t.Fatalf("workers=%d mode=%d: executor mix %v", workers, mode, mix)
			}
			// Exact repeats after the first vector run nothing, so the
			// flattening of every group is deferred to a read.
			if pinned && toggle == 0 && k > 1 && g.numGroups > 0 && g.noBase && deferred == 0 {
				t.Fatalf("workers=%d mode=%d stride=%d: no vector deferred its flattening", workers, mode, k)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("workers=%d mode=%d: waveform diverges at %d", workers, mode, j)
				}
			}
		}
	})
}

// applyGated applies vecs through Apply from the all-zeros reset,
// guarded when ctx is non-nil, and records every net's final after every
// vector and every net's waveform after every k-th vector and the last.
// It also counts the vectors after which flattening was still pending.
func applyGated(t *testing.T, s *Sim, vecs [][]bool, ctx context.Context, k int) (out []bool, deferred int) {
	t.Helper()
	if err := s.ResetConsistent(nil); err != nil {
		t.Fatal(err)
	}
	c := s.Circuit()
	for j, vec := range vecs {
		if err := s.Apply(ctx, vec); err != nil {
			t.Fatal(err)
		}
		if s.gate != nil && s.gate.pending {
			deferred++
		}
		for n := 0; n < c.NumNets(); n++ {
			out = append(out, s.Final(circuit.NetID(n)))
		}
		if (j+1)%k != 0 && j != len(vecs)-1 {
			continue
		}
		for n := 0; n < c.NumNets(); n++ {
			for tm := 0; tm <= s.Depth(); tm++ {
				out = append(out, s.ValueAt(circuit.NetID(n), tm))
			}
		}
	}
	return out, deferred
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
	for _, gi := range g.active {
		t.Fatalf("group %d active on a repeated vector", gi)
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

// deferredSims returns a simulator gated at 2 workers and a sequential
// reference, both of which applied one random vector twice from the
// all-zeros reset. The repeat runs no instruction on the gated one, so
// the flattening of every gate group is pending there: its fields still
// hold the first vector's waveforms while the reference's are flat.
func deferredSims(t *testing.T) (s, ref *Sim) {
	t.Helper()
	r := rand.New(rand.NewSource(21))
	c := ckttest.Random(r, 40, 6)
	var err error
	if s, err = Compile(c, Config{WordBits: 8, Trim: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ConfigureExec(shard.ActivityGated, 2); err != nil {
		t.Fatal(err)
	}
	if ref, err = Compile(c, Config{WordBits: 8, Trim: true}); err != nil {
		t.Fatal(err)
	}
	vec := vectors.Random(1, len(s.Circuit().Inputs), 21).Bits[0]
	for _, x := range []*Sim{s, ref} {
		if err := x.ResetConsistent(nil); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if err := x.ApplyVector(vec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !s.gate.pending {
		t.Fatal("the repeated vector left no flattening pending")
	}
	return s, ref
}

// sameWaveforms fails unless every net's waveform reads the same on got
// and want.
func sameWaveforms(t *testing.T, got, want *Sim, what string) {
	t.Helper()
	for n := 0; n < want.Circuit().NumNets(); n++ {
		for tm := 0; tm <= want.Depth(); tm++ {
			if g, w := got.ValueAt(circuit.NetID(n), tm), want.ValueAt(circuit.NetID(n), tm); g != w {
				t.Fatalf("%s: net %d time %d reads %v, sequential %v", what, n, tm, g, w)
			}
		}
	}
}

// TestFlattenPoints covers each point that must flatten the fields an
// idle vector left pending before it reads or copies them: a waveform
// read, Save (the state Restore brings back), Clone (a copy without
// gating), and every replacement of the gater: Close, a second
// ConfigureExec and dead-store elimination. It also covers the two
// points that must drop the pending set instead, because flattening
// afterwards would erase computed waveforms: a vector on the sequential
// form, and Restore.
func TestFlattenPoints(t *testing.T) {
	fresh := func(s *Sim, seed int64) []bool { return vectors.Random(1, len(s.Circuit().Inputs), seed).Bits[0] }
	apply := func(t *testing.T, v []bool, sims ...*Sim) {
		t.Helper()
		for _, x := range sims {
			if err := x.ApplyVector(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		read func(t *testing.T, s, ref *Sim) *Sim // returns the simulator to compare with ref
	}{
		{"ValueAt", func(t *testing.T, s, ref *Sim) *Sim { return s }},
		{"Save", func(t *testing.T, s, ref *Sim) *Sim {
			s.Save()
			apply(t, fresh(s, 22), s)
			if err := s.Restore(); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"Clone", func(t *testing.T, s, ref *Sim) *Sim { return s.Clone().(*Sim) }},
		{"Close", func(t *testing.T, s, ref *Sim) *Sim {
			s.Close()
			return s
		}},
		{"ConfigureExec", func(t *testing.T, s, ref *Sim) *Sim {
			if _, err := s.ConfigureExec(shard.ActivityGated, 1); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"EliminateDeadStores", func(t *testing.T, s, ref *Sim) *Sim {
			if n, err := s.EliminateDeadStores(); err != nil || n == 0 {
				t.Fatalf("dead-store elimination removed %d instructions (%v); it must replace the gater", n, err)
			}
			return s
		}},
		{"SequentialForm", func(t *testing.T, s, ref *Sim) *Sim {
			apply(t, fresh(s, 24), s, ref)
			if s.gate.exec != obs.GatedSequential {
				t.Fatal("a fresh random vector ran on the caller")
			}
			return s
		}},
		{"Restore", func(t *testing.T, s, ref *Sim) *Sim {
			v := fresh(s, 25)
			apply(t, v, s, ref) // computed waveforms, nothing pending
			s.Save()
			apply(t, v, s) // idle: everything pending
			if !s.gate.pending {
				t.Fatal("the repeated vector left no flattening pending")
			}
			if err := s.Restore(); err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ref := deferredSims(t)
			defer s.Close()
			sameWaveforms(t, tc.read(t, s, ref), ref, tc.name)
			// A vector applied afterwards settles like sequential execution
			// (finals only: dead-store elimination leaves dead words stale).
			apply(t, fresh(s, 23), s, ref)
			for n := 0; n < ref.Circuit().NumNets(); n++ {
				if s.Final(circuit.NetID(n)) != ref.Final(circuit.NetID(n)) {
					t.Fatalf("%s, then a vector: net %d settles differently", tc.name, n)
				}
			}
		})
	}
}

package shard

import (
	"math/rand"
	"sync"
	"testing"

	"udsim/internal/program"
)

// genProgram builds a random but valid gate-style program: numPersist
// persistent slots followed by a shared scratch region, with every
// scratch read preceded by a scratch write in the same emission group —
// the shape every compiler in this repository produces.
func genProgram(tb testing.TB, rng *rand.Rand, numPersist, numScratch, groups int) (*program.Program, int32) {
	tb.Helper()
	scratchStart := int32(numPersist)
	nv := numPersist + numScratch
	var code []program.Instr
	binOps := []program.Op{program.OpAnd, program.OpOr, program.OpXor, program.OpNand, program.OpNor, program.OpXnor}
	persist := func() int32 { return int32(rng.Intn(numPersist)) }
	for g := 0; g < groups; g++ {
		// Write 1..3 scratch temps from persistent state, chain them, then
		// land the result in a persistent slot — sometimes via a shift.
		nt := 1 + rng.Intn(3)
		temps := make([]int32, nt)
		for t := 0; t < nt; t++ {
			temps[t] = scratchStart + int32(rng.Intn(numScratch))
			a := persist()
			if t > 0 && rng.Intn(2) == 0 {
				a = temps[rng.Intn(t)] // chain an earlier temp of this group
			}
			op := binOps[rng.Intn(len(binOps))]
			code = append(code, program.Instr{Op: op, Dst: temps[t], A: a, B: persist()})
			if rng.Intn(3) == 0 {
				code = append(code, program.Instr{Op: program.OpNot, Dst: temps[t], A: temps[t], B: program.None})
			}
		}
		dst := persist()
		src := temps[rng.Intn(nt)]
		switch rng.Intn(4) {
		case 0:
			code = append(code, program.Instr{Op: program.OpShlOr, Dst: dst, A: src, B: program.None, Sh: uint8(1 + rng.Intn(3))})
		case 1:
			code = append(code, program.Instr{Op: program.OpOrMove, Dst: dst, A: src, B: program.None})
		default:
			code = append(code, program.Instr{Op: program.OpMove, Dst: dst, A: src, B: program.None})
		}
		// Occasionally a direct persistent-to-persistent op (PC-set style).
		if rng.Intn(2) == 0 {
			code = append(code, program.Instr{Op: binOps[rng.Intn(len(binOps))], Dst: persist(), A: persist(), B: persist()})
		}
		if rng.Intn(8) == 0 {
			code = append(code, program.Instr{Op: program.OpConst0, Dst: persist(), A: program.None, B: program.None})
		}
		if rng.Intn(8) == 0 {
			code = append(code, program.Instr{Op: program.OpFillLowN, Dst: persist(), A: persist(), B: int32(1 + rng.Intn(32)), Sh: uint8(rng.Intn(32))})
		}
	}
	p := &program.Program{WordBits: 32, NumVars: nv, Code: code}
	if err := p.Validate(); err != nil {
		tb.Fatalf("generated program does not validate: %v", err)
	}
	return p, scratchStart
}

// TestEngineEquivalence is the core planner/engine check: for random
// gate-style programs, running the plan's levels — ungated, or gated
// with every level open — must leave the persistent state bit-identical
// to sequential execution.
func TestEngineEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, scratchStart := genProgram(t, rng, 40+rng.Intn(40), 4+rng.Intn(8), 30+rng.Intn(60))
		want := make([]uint64, p.NumVars)
		for i := range want {
			want[i] = rng.Uint64()
		}
		init := append([]uint64(nil), want...)
		p.Run(want)
		plan, err := Partition(p, scratchStart)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, gated := range []bool{false, true} {
			st := append([]uint64(nil), init...)
			e := NewEngine(plan)
			gateAll(e, gated)
			e.Run(st)
			for i := 0; i < int(scratchStart); i++ {
				if st[i] != want[i] {
					t.Fatalf("seed %d gated %v: slot %d = %#x, sequential %#x",
						seed, gated, i, st[i], want[i])
				}
			}
		}
	}
}

// gateAll installs gates that run every level whole, or with on == false
// removes them.
func gateAll(e *Engine, on bool) {
	if !on {
		e.SetGate(nil, nil, nil)
		return
	}
	all := make([]bool, e.Levels())
	for l := range all {
		all[l] = true
	}
	e.SetGate(all, nil, nil)
}

// TestBarrier hammers the calibration barrier across reuse cycles:
// every party completes every round exactly once.
func TestBarrier(t *testing.T) {
	const parties, rounds = 4, 200
	b := newBarrier(parties)
	counts := make([][rounds]int, parties)
	var wg sync.WaitGroup
	wg.Add(parties)
	for p := 0; p < parties; p++ {
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				counts[p][r]++
				b.await()
			}
		}(p)
	}
	wg.Wait()
	for p := range counts {
		for r, c := range counts[p] {
			if c != 1 {
				t.Fatalf("party %d round %d ran %d times", p, r, c)
			}
		}
	}
}

// TestPoolDo checks the vector-batch pool runs every worker exactly once
// per Do across reuse.
func TestPoolDo(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		p := NewPool(n)
		for round := 0; round < 50; round++ {
			hits := make([]int, n)
			p.Do(func(w int) { hits[w]++ })
			for w, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d round %d: worker %d ran %d times", n, round, w, h)
				}
			}
		}
		p.Close()
	}
}

// TestStrategyParsing round-trips the strategy names and refuses the
// retired level-sharded spellings.
func TestStrategyParsing(t *testing.T) {
	for _, s := range []Strategy{Sequential, VectorBatch, Auto, ActivityGated, Native} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("round-trip %v: got %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"bogus", "sharded", "shard"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}

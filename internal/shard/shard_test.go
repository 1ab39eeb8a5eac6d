package shard

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"udsim/internal/program"
	"udsim/internal/verify"
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
// gate-style programs, sharded execution — on every worker, or gated and
// so on the caller alone — must leave the persistent state bit-identical
// to sequential execution, for every worker count.
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
		for workers := 1; workers <= 4; workers++ {
			plan, err := Partition(p, scratchStart, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			for _, callerOnly := range []bool{false, true} {
				st := make([]uint64, plan.StateSize())
				copy(st, init)
				e := NewEngine(plan)
				gateAll(e, callerOnly)
				e.Run(st)
				e.Close()
				for i := 0; i < int(scratchStart); i++ {
					if st[i] != want[i] {
						t.Fatalf("seed %d workers %d caller-only %v: slot %d = %#x, sequential %#x",
							seed, workers, callerOnly, i, st[i], want[i])
					}
				}
			}
		}
	}
}

// gateAll installs gates that run every level's whole cells, which puts
// the engine's runs on the caller alone, or with on == false removes
// them.
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

// TestPlanPassesV008 checks that every generated plan satisfies the
// happens-before rule V012 (which retired the shard rule V008) — the
// planner and the checker must agree.
func TestPlanPassesV008(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		p, scratchStart := genProgram(t, rng, 30, 6, 40)
		for _, workers := range []int{1, 2, 4, 8} {
			plan, err := Partition(p, scratchStart, workers)
			if err != nil {
				t.Fatal(err)
			}
			spec := &verify.Spec{
				Name:         "fuzz",
				Sim:          p,
				ScratchStart: scratchStart,
				Shards:       plan.Assignment(),
			}
			// The random program is not levelized, so only the
			// happens-before rule is meaningful here.
			r := verify.Check(spec, verify.Options{
				Disable: []string{verify.RuleDefUse, verify.RuleWAW, verify.RuleLayout, verify.RulePhase, verify.RuleDead, verify.RuleCycle},
			})
			for _, f := range r.Findings {
				if f.Rule == verify.RuleRace {
					t.Fatalf("seed %d workers %d: %v", seed, workers, f)
				}
			}
		}
	}
}

// TestV008CatchesBadPlan mutates a valid plan and expects rule V012 to
// object — the rule must have teeth.
func TestV008CatchesBadPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, scratchStart := genProgram(t, rng, 30, 6, 40)
	plan, err := Partition(p, scratchStart, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.Assignment()
	if a.Levels < 2 {
		t.Skip("degenerate plan: single level")
	}
	// Move the last instruction of the last level to level 0: its reads of
	// values produced in between become forward reads.
	bad := &verify.ShardAssignment{
		Workers: a.Workers,
		Levels:  a.Levels,
		Level:   append([]int32(nil), a.Level...),
		Shard:   append([]int32(nil), a.Shard...),
	}
	moved := false
	for i := len(bad.Level) - 1; i >= 0; i-- {
		if bad.Level[i] == int32(a.Levels-1) {
			bad.Level[i] = 0
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no instruction in the last level")
	}
	spec := &verify.Spec{Name: "mutated", Sim: p, ScratchStart: scratchStart, Shards: bad}
	r := verify.Check(spec, verify.Options{
		Disable: []string{verify.RuleDefUse, verify.RuleWAW, verify.RuleLayout, verify.RulePhase, verify.RuleDead, verify.RuleCycle},
	})
	if !r.HasRule(verify.RuleRace) {
		t.Fatalf("mutated plan produced no V012 finding:\n%s", r)
	}
}

// TestBarrier hammers the generation barrier across reuse cycles.
func TestBarrier(t *testing.T) {
	const parties, rounds = 4, 200
	b := newBarrier(parties)
	counts := make([][rounds]int, parties)
	done := make(chan struct{}, parties)
	for p := 0; p < parties; p++ {
		go func(p int) {
			for r := 0; r < rounds; r++ {
				counts[p][r]++
				b.await()
			}
			done <- struct{}{}
		}(p)
	}
	for p := 0; p < parties; p++ {
		<-done
	}
	for p := range counts {
		for r, c := range counts[p] {
			if c != 1 {
				t.Fatalf("party %d round %d ran %d times", p, r, c)
			}
		}
	}

	// Poisoning releases the waiters spinning on a generation that can
	// no longer advance, with false, and refuses every later arrival.
	b = newBarrier(parties)
	released := make(chan bool, parties-1)
	for p := 0; p < parties-1; p++ {
		go func() { released <- b.await() }()
	}
	for b.arrived.Load() != parties-1 {
		runtime.Gosched()
	}
	b.cancel()
	for p := 0; p < parties-1; p++ {
		if <-released {
			t.Fatal("poisoned barrier released a waiter with true")
		}
	}
	if b.await() {
		t.Fatal("poisoned barrier admitted a new arrival")
	}
}

// TestEngineHandoff drives the between-run handoff: back-to-back runs
// (helpers still polling) alternate with runs that find every helper
// parked after an idle gap, at 2 and 4 workers, guarded and unguarded,
// and every run must match sequential execution. Engines are then
// closed once with every helper parked and once right after a run,
// while the helpers are still polling; Close must return, which it does
// only after every helper has exited.
func TestEngineHandoff(t *testing.T) {
	waitParked := func(t *testing.T, e *Engine) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for _, h := range e.helpers {
			for !h.parked.Load() {
				if time.Now().After(deadline) {
					t.Fatal("helpers never parked while idle")
				}
				time.Sleep(idleWait)
			}
		}
	}
	for _, workers := range []int{2, 4} {
		for _, guarded := range []bool{false, true} {
			plan, st, want := guardFixture(t, 21, workers)
			init := append([]uint64(nil), st...)
			for _, parkAtClose := range []bool{true, false} {
				e := NewEngine(plan)
				for run := 0; run < 12; run++ {
					if run%4 == 3 {
						waitParked(t, e)
					}
					copy(st, init)
					if guarded {
						if err := e.RunCtx(context.Background(), st); err != nil {
							t.Fatalf("workers %d run %d: %v", workers, run, err)
						}
					} else {
						e.Run(st)
					}
					for i, w := range want {
						if st[i] != w {
							t.Fatalf("workers %d guarded=%v run %d: slot %d = %#x, sequential %#x",
								workers, guarded, run, i, st[i], w)
						}
					}
				}
				if parkAtClose {
					waitParked(t, e)
				}
				done := make(chan struct{})
				go func() { e.Close(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatalf("workers %d: Close did not release the helpers", workers)
				}
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

// TestLoadBalance checks LPT puts comparable cost on every shard for a
// wide single-level program.
func TestLoadBalance(t *testing.T) {
	var code []program.Instr
	nv := 400
	for i := 0; i < 200; i++ {
		code = append(code, program.Instr{Op: program.OpAnd, Dst: int32(200 + i), A: int32(i), B: int32((i + 1) % 200)})
	}
	p := &program.Program{WordBits: 32, NumVars: nv, Code: code}
	plan, err := Partition(p, int32(nv), 4)
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.Levels != 1 {
		t.Fatalf("independent ops leveled into %d levels", st.Levels)
	}
	if st.BulkCost > st.TotalCost/4+1 {
		t.Fatalf("bulk cost %d for total %d over 4 shards: imbalanced", st.BulkCost, st.TotalCost)
	}
}

// TestStrategyParsing round-trips the strategy names.
func TestStrategyParsing(t *testing.T) {
	for _, s := range []Strategy{Sequential, Sharded, VectorBatch, Auto} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("round-trip %v: got %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy parsed")
	}
}

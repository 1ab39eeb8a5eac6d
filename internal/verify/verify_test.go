package verify

import (
	"strings"
	"testing"

	"udsim/internal/program"
)

// mk builds a spec over numVars 8-bit slots with the given scratch
// boundary. Slots below scratch are persistent.
func mk(numVars int, scratch int32, init, sim []program.Instr) *Spec {
	mkProg := func(code []program.Instr) *program.Program {
		return &program.Program{WordBits: 8, NumVars: numVars, Code: code}
	}
	s := &Spec{
		Name:         "test",
		Sim:          mkProg(sim),
		ScratchStart: scratch,
	}
	if init != nil {
		s.Init = mkProg(init)
	}
	return s
}

func wantRule(t *testing.T, r *Report, rule string) {
	t.Helper()
	if !r.HasRule(rule) {
		t.Fatalf("want a %s finding, got:\n%s", rule, r)
	}
}

func wantClean(t *testing.T, r *Report) {
	t.Helper()
	if !r.Clean() {
		t.Fatalf("want clean report, got:\n%s", r)
	}
}

func TestCleanMinimalProgram(t *testing.T) {
	// init: s1 = previous s1 (bit 7); runtime writes s0; sim: s2 = s0&s1.
	s := mk(4, 4,
		[]program.Instr{{Op: program.OpBit, Dst: 1, A: 1, B: program.None, Sh: 7}},
		[]program.Instr{{Op: program.OpAnd, Dst: 2, A: 0, B: 1}},
	)
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1, 2}
	wantClean(t, Check(s, Options{}))
}

func TestV001ScratchReadBeforeWrite(t *testing.T) {
	s := mk(6, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 4, B: program.None}, // scratch 4 never written
	})
	s.LiveOut = []int32{1}
	r := Check(s, Options{})
	wantRule(t, r, RuleDefUse)
	if r.Findings[0].Slot != 4 {
		t.Errorf("finding slot = %d, want 4", r.Findings[0].Slot)
	}
}

func TestV001StaleRead(t *testing.T) {
	// Slot 2's only sim update happens after slot 1 reads it: levelization
	// violation (1 sees the previous vector's value of 2).
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 2, B: program.None},
		{Op: program.OpMove, Dst: 2, A: 0, B: program.None},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1, 2}
	r := Check(s, Options{})
	wantRule(t, r, RuleDefUse)
	if f := r.Findings[0]; f.Instr != 0 || f.Slot != 2 {
		t.Errorf("finding at sim[%d] slot %d, want sim[0] slot 2", f.Instr, f.Slot)
	}
}

func TestV001UnwrittenPersistentReadIsFine(t *testing.T) {
	// Slot 3 has no sim update at all: its previous-vector value is the
	// value for this vector, by design.
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 3, B: program.None},
	})
	s.LiveOut = []int32{1, 3}
	wantClean(t, Check(s, Options{}))
}

func TestV001AccumulateIntoStale(t *testing.T) {
	// OrMove merges into slot 1's pre-sim content, but neither init nor
	// the runtime prepared it this vector: the OR picks up stale bits.
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpOrMove, Dst: 1, A: 0, B: program.None},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1}
	r := Check(s, Options{})
	wantRule(t, r, RuleDefUse)

	// With an init-phase clear it is the trimming compilers' standard
	// accumulate pattern — clean.
	s.Init = &program.Program{WordBits: 8, NumVars: 4, Code: []program.Instr{
		{Op: program.OpConst0, Dst: 1, A: program.None, B: program.None},
	}}
	wantClean(t, Check(s, Options{}))
}

func TestV002DoubleFreshDefinition(t *testing.T) {
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 1, A: 2, B: program.None}, // second producer
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1}
	r := Check(s, Options{})
	wantRule(t, r, RuleWAW)
}

func TestV002InitThenSimOverwriteIsLegal(t *testing.T) {
	// One fresh definition per program: init clears, sim recomputes.
	s := mk(4, 4,
		[]program.Instr{{Op: program.OpConst0, Dst: 1, A: program.None, B: program.None}},
		[]program.Instr{{Op: program.OpMove, Dst: 1, A: 0, B: program.None}},
	)
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1}
	wantClean(t, Check(s, Options{}))
}

func TestV002FoldContinuationIsNotFresh(t *testing.T) {
	// dst = a AND b; dst = dst AND c; dst = NOT dst — one definition.
	s := mk(5, 5, nil, []program.Instr{
		{Op: program.OpAnd, Dst: 3, A: 0, B: 1},
		{Op: program.OpAnd, Dst: 3, A: 3, B: 2},
		{Op: program.OpNot, Dst: 3, A: 3, B: program.None},
	})
	s.RuntimeWritten = []int32{0, 1, 2}
	s.LiveOut = []int32{3}
	wantClean(t, Check(s, Options{}))
}

func TestV003LayoutViolations(t *testing.T) {
	base := func() *Spec {
		s := mk(8, 6, nil, []program.Instr{
			{Op: program.OpMove, Dst: 2, A: 0, B: program.None},
		})
		s.RuntimeWritten = []int32{0, 1}
		s.LiveOut = []int32{2}
		s.Fields = []Field{
			{Name: "a", Base: 0, Words: 2, WidthBits: 10},
			{Name: "b", Base: 2, Words: 2, WidthBits: 16},
			{Name: "c", Base: 4, Words: 2, WidthBits: 9},
		}
		return s
	}

	s := base()
	wantClean(t, Check(s, Options{}))

	s = base()
	s.Fields[1].Base = 1 // overlaps field "a"
	wantRule(t, Check(s, Options{}), RuleLayout)

	s = base()
	s.Fields[2].Words = 3 // runs into the scratch region
	wantRule(t, Check(s, Options{}), RuleLayout)

	s = base()
	s.Fields[0].WidthBits = 17 // 17 bits in 2×8-bit words
	wantRule(t, Check(s, Options{}), RuleLayout)
}

// phasedSpec: slots 0,1 at phase 0; slot 2 at phase 1; slot 3 at phase 8
// (the next word up); slot 4 scratch.
func phasedSpec(sim []program.Instr) *Spec {
	s := mk(5, 4, nil, sim)
	s.RuntimeWritten = []int32{0, 1}
	s.LiveOut = []int32{2, 3}
	s.Phase = []int{0, 0, 1, 8, NoPhase}
	return s
}

func TestV004GateEvalPhases(t *testing.T) {
	// a(0) AND b(0) → result phase 1 → slot 2 (phase 1): clean.
	wantClean(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpAnd, Dst: 2, A: 0, B: 1},
	}), Options{}))

	// a(0) AND c(1): operands not aligned.
	wantRule(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpAnd, Dst: 4, A: 0, B: 2},
	}), Options{}), RulePhase)

	// Result phase 1 written into slot 3 (phase 8): wrong destination.
	wantRule(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpAnd, Dst: 3, A: 0, B: 1},
	}), Options{}), RulePhase)
}

func TestV004ShiftTranslation(t *testing.T) {
	// Word boundary move: slot 3 (phase 8) shifted right by 7 lands at
	// phase 15... no — right shift raises the phase of bit 0: 8+7=15.
	// To land in slot 2 (phase 1) we need shr by... impossible; instead
	// test shl: slot 3 (phase 8) shl 7 → phase 1 → slot 2: clean.
	wantClean(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpShlMove, Dst: 2, A: 3, B: program.None, Sh: 7},
	}), Options{}))

	// Corrupted shift amount: shl 6 → phase 2 ≠ 1.
	wantRule(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpShlMove, Dst: 2, A: 3, B: program.None, Sh: 6},
	}), Options{}), RulePhase)
}

func TestV004CarryOperand(t *testing.T) {
	// Left shift of slot 3 (phase 8) with carry from slot 0 (phase 0 =
	// 8−W): clean.
	wantClean(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpShlMove, Dst: 2, A: 3, B: 0, Sh: 7},
	}), Options{}))

	// Carry from slot 2 (phase 1 ≠ 0): wrong word.
	wantRule(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpShlMove, Dst: 4, A: 3, B: 2, Sh: 7},
	}), Options{}), RulePhase)
}

func TestV004BroadcastsArePhaseFree(t *testing.T) {
	// Fill results carry no phase: storable anywhere, usable as either
	// operand of a gate eval. This is how trimmed gap words type-check.
	wantClean(t, Check(phasedSpec([]program.Instr{
		{Op: program.OpFill, Dst: 4, A: 3, B: program.None, Sh: 7},
		{Op: program.OpAnd, Dst: 2, A: 0, B: 4},
	}), Options{}))

	// A fill into a phased slot keeps the slot phase-free, so a later
	// carry read of it is aligned too: trimming's saturated word read by
	// the shift of the word above it (c880 at W8 compiles this shape).
	s := phasedSpec([]program.Instr{
		{Op: program.OpShlMove, Dst: 4, A: 3, B: 2, Sh: 7},
	})
	s.Init = &program.Program{WordBits: 8, NumVars: 5, Code: []program.Instr{
		{Op: program.OpFill, Dst: 2, A: 3, B: program.None, Sh: 7},
	}}
	wantClean(t, Check(s, Options{}))
}

func TestV005DeadCode(t *testing.T) {
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 2, A: 0, B: program.None}, // 2 is not live-out
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1}
	r := Check(s, Options{})
	wantClean(t, r) // dead code is advisory, not a violation
	if len(r.Stats.DeadSim) != 1 || r.Stats.DeadSim[0] != 1 {
		t.Fatalf("DeadSim = %v, want [1]", r.Stats.DeadSim)
	}
	if r.Stats.UnusedSlots != 1 { // slot 3 is referenced by nothing
		t.Errorf("UnusedSlots = %d, want 1", r.Stats.UnusedSlots)
	}

	r = Check(s, Options{ReportDead: true})
	wantRule(t, r, RuleDead)
	if r.Count(SevInfo) != 1 {
		t.Errorf("info findings = %d, want 1", r.Count(SevInfo))
	}
	if !r.Clean() {
		t.Error("info findings must keep the report clean")
	}
}

func TestV005DeadChain(t *testing.T) {
	// A dead consumer must not keep its producer alive: both moves die.
	s := mk(6, 6, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 2, A: 1, B: program.None},
		{Op: program.OpMove, Dst: 3, A: 0, B: program.None},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{3}
	r := Check(s, Options{})
	if len(r.Stats.DeadSim) != 2 {
		t.Fatalf("DeadSim = %v, want [0 1]", r.Stats.DeadSim)
	}
}

func TestV006CombinationalCycle(t *testing.T) {
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpOr, Dst: 1, A: 2, B: 0},
		{Op: program.OpOr, Dst: 2, A: 1, B: 0},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1, 2}
	wantRule(t, Check(s, Options{}), RuleCycle)
}

func TestV006ScratchReuseIsNotACycle(t *testing.T) {
	// The same scratch slot serves two gates in sequence; naive slot-graph
	// analysis would see 4→1 and 1→4 as a cycle.
	s := mk(6, 4, nil, []program.Instr{
		{Op: program.OpAnd, Dst: 4, A: 0, B: 1}, // gate 1 into scratch
		{Op: program.OpMove, Dst: 2, A: 4, B: program.None},
		{Op: program.OpAnd, Dst: 4, A: 2, B: 0}, // gate 2 reuses scratch
		{Op: program.OpMove, Dst: 3, A: 4, B: program.None},
	})
	s.RuntimeWritten = []int32{0, 1}
	s.LiveOut = []int32{2, 3}
	wantClean(t, Check(s, Options{}))
}

func TestV006CrossVectorFeedbackViaInitIsLegal(t *testing.T) {
	// The PC-set zero-insertion pattern: init moves the final value into
	// the time-zero variable. The "cycle" runs through the vector
	// boundary, which is not a combinational cycle.
	s := mk(4, 4,
		[]program.Instr{{Op: program.OpMove, Dst: 1, A: 2, B: program.None}},
		[]program.Instr{{Op: program.OpMove, Dst: 2, A: 1, B: program.None}},
	)
	s.LiveOut = []int32{1, 2}
	wantClean(t, Check(s, Options{}))
}

func TestV007Structure(t *testing.T) {
	// Out-of-range destination.
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 9, A: 0, B: program.None},
	})
	r := Check(s, Options{})
	wantRule(t, r, RuleStructure)
	if len(r.Findings) != 1 {
		t.Errorf("structure failure must abort the other rules, got:\n%s", r)
	}

	// Missing sim program.
	r = Check(&Spec{Name: "broken"}, Options{})
	wantRule(t, r, RuleStructure)

	// Phase slice of the wrong length.
	s = mk(4, 4, nil, nil)
	s.Phase = []int{0}
	wantRule(t, Check(s, Options{}), RuleStructure)

	// Init/sim variable-count mismatch.
	s = mk(4, 4, nil, nil)
	s.Init = &program.Program{WordBits: 8, NumVars: 3}
	wantRule(t, Check(s, Options{}), RuleStructure)
}

func TestOptionsDisable(t *testing.T) {
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 1, A: 2, B: program.None},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1}
	wantRule(t, Check(s, Options{}), RuleWAW)
	if r := Check(s, Options{Disable: []string{RuleWAW}}); r.HasRule(RuleWAW) {
		t.Fatalf("disabled rule still reported:\n%s", r)
	}
}

func TestReportErrAndOrdering(t *testing.T) {
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 1, A: 2, B: program.None}, // V002
		{Op: program.OpMove, Dst: 2, A: 0, B: program.None}, // dead
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1}
	r := Check(s, Options{ReportDead: true})
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "V002") {
		t.Fatalf("Err() = %v, want V002 summary", err)
	}
	for i := 1; i < len(r.Findings); i++ {
		if r.Findings[i].Severity > r.Findings[i-1].Severity {
			t.Fatalf("findings not sorted by severity:\n%s", r)
		}
	}

	clean := mk(2, 2, nil, nil)
	if err := Check(clean, Options{}).Err(); err != nil {
		t.Fatalf("clean Err() = %v", err)
	}
}

// shardSpec builds a small levelized chain a->b->c with an explicit
// shard assignment: sim[0] writes slot 1 from 0, sim[1] writes slot 2
// from 1, sim[2] writes slot 3 from 0 (independent of the chain).
func shardSpec(level, sh []int32, workers, levels int) *Spec {
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 1, A: 0, B: program.None},
		{Op: program.OpNot, Dst: 2, A: 1, B: program.None},
		{Op: program.OpNot, Dst: 3, A: 0, B: program.None},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{2, 3}
	s.Shards = &ShardAssignment{Workers: workers, Levels: levels, Level: level, Shard: sh}
	return s
}

func TestV008CleanPlan(t *testing.T) {
	// Chain split across levels, independent op in parallel with level 0.
	s := shardSpec([]int32{0, 1, 0}, []int32{0, 0, 1}, 2, 2)
	wantClean(t, Check(s, Options{}))
}

func TestV008SameShardSameLevelChainIsLegal(t *testing.T) {
	// The whole chain on one shard in one level: sequential within the
	// shard, so reads resolve in order.
	s := shardSpec([]int32{0, 0, 0}, []int32{0, 0, 1}, 2, 1)
	wantClean(t, Check(s, Options{}))
}

func TestV008CrossShardReadWithinLevel(t *testing.T) {
	// sim[1] reads slot 1 in the same level it is written, from another
	// shard: a data race.
	s := shardSpec([]int32{0, 0, 0}, []int32{0, 1, 1}, 2, 1)
	wantRule(t, Check(s, Options{}), RuleShard)
}

func TestV008ReadFromLaterLevel(t *testing.T) {
	// sim[1] runs in level 0 but its operand is written in level 1.
	s := shardSpec([]int32{1, 0, 0}, []int32{0, 0, 1}, 2, 2)
	wantRule(t, Check(s, Options{}), RuleShard)
}

func TestV008ConcurrentWAW(t *testing.T) {
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpConst0, Dst: 1, A: program.None, B: program.None},
		{Op: program.OpConst1, Dst: 1, A: program.None, B: program.None},
	})
	s.LiveOut = []int32{1}
	s.Shards = &ShardAssignment{Workers: 2, Levels: 1, Level: []int32{0, 0}, Shard: []int32{0, 1}}
	r := Check(s, Options{Disable: []string{RuleWAW}})
	wantRule(t, r, RuleShard)
}

func TestV008WriteUnderConcurrentReader(t *testing.T) {
	// sim[0] reads slot 0 in level 0 on shard 0; sim[1] overwrites slot 0
	// in the same level on shard 1: write-after-read race.
	s := mk(4, 4, nil, []program.Instr{
		{Op: program.OpNot, Dst: 1, A: 0, B: program.None},
		{Op: program.OpConst0, Dst: 0, A: program.None, B: program.None},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{0, 1}
	s.Shards = &ShardAssignment{Workers: 2, Levels: 1, Level: []int32{0, 0}, Shard: []int32{0, 1}}
	wantRule(t, Check(s, Options{}), RuleShard)
}

func TestV008CrossShardScratch(t *testing.T) {
	// Scratch slot 4 written by shard 0, read by shard 1 in a later
	// level: persistent state would allow this, private arenas do not.
	s := mk(6, 4, nil, []program.Instr{
		{Op: program.OpMove, Dst: 4, A: 0, B: program.None},
		{Op: program.OpMove, Dst: 1, A: 4, B: program.None},
	})
	s.RuntimeWritten = []int32{0}
	s.LiveOut = []int32{1}
	s.Shards = &ShardAssignment{Workers: 2, Levels: 2, Level: []int32{0, 1}, Shard: []int32{0, 1}}
	wantRule(t, Check(s, Options{}), RuleShard)
}

func TestV008MalformedAssignment(t *testing.T) {
	s := shardSpec([]int32{0, 1}, []int32{0, 0, 1}, 2, 2) // wrong length
	wantRule(t, Check(s, Options{}), RuleShard)
	s = shardSpec([]int32{0, 5, 0}, []int32{0, 0, 1}, 2, 2) // level out of range
	wantRule(t, Check(s, Options{}), RuleShard)
}

package program

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestInstrPacksInto16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 16 {
		t.Fatalf("Instr is %d bytes, want 16", got)
	}
}

// randomProgram draws a valid program over persistent slots [0,persistent)
// and scratch slots [persistent, persistent+scratch) with what the
// scheduler must get right: accumulating ops (ormove, shlor), fold
// continuations (dst = dst op x), scratch reused for unrelated values,
// scratch read before any write, shifts with and without a carry word,
// and nops.
func randomProgram(r *rand.Rand, wordBits, persistent, scratch, n int) *Program {
	nv := persistent + scratch
	p := &Program{WordBits: wordBits, NumVars: nv}
	var recent [8]int32 // recently written slots, so reads form chains
	slot := func() int32 {
		if r.Intn(2) == 0 {
			return recent[r.Intn(len(recent))] % int32(nv)
		}
		return int32(r.Intn(nv))
	}
	for len(p.Code) < n {
		op := Op(r.Intn(int(numOps)))
		dst := slot()
		if scratch > 0 && r.Intn(3) == 0 {
			dst = int32(persistent + r.Intn(scratch))
		}
		in := Instr{Op: op, Dst: dst, A: slot(), B: None}
		switch op {
		case OpAnd, OpOr, OpXor, OpNand, OpNor, OpXnor:
			in.B = slot()
			if r.Intn(4) == 0 {
				in.A = in.Dst // fold continuation
			}
		case OpConst0, OpConst1:
			in.A = None
		case OpShlOr, OpShlMove, OpShrMove:
			in.Sh = uint8(r.Intn(wordBits))
			if in.Sh != 0 && r.Intn(2) == 0 {
				in.B = slot()
			}
		case OpFill, OpBit:
			in.Sh = uint8(r.Intn(wordBits))
		case OpFillLowN:
			in.Sh = uint8(r.Intn(wordBits))
			in.B = int32(1 + r.Intn(wordBits))
		}
		recent[len(p.Code)%len(recent)] = in.Dst
		p.Code = append(p.Code, in)
	}
	return p
}

// agree runs p in emission order and q from copies of one random state,
// twice in a row like a vector loop, and fails on the first persistent
// slot where they differ. q's renamed slots start as garbage.
func agree(t *testing.T, r *rand.Rand, p *Program, q *Sequential, scratchStart int32) {
	t.Helper()
	mask := p.Mask()
	emit := make([]uint64, p.NumVars)
	seq := make([]uint64, q.NumVars())
	for i := range seq {
		seq[i] = r.Uint64() & mask
	}
	copy(emit, seq)
	for round := 0; round < 2; round++ {
		p.Run(emit)
		q.Run(seq)
		for v := int32(0); v < scratchStart && int(v) < p.NumVars; v++ {
			if emit[v] != seq[v] {
				t.Fatalf("round %d: slot %d = %#x in emission order, %#x scheduled\n%s", round, v, emit[v], seq[v], p.Disassemble())
			}
		}
	}
}

func TestScheduleMatchesEmissionOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		wb := []int{8, 16, 32, 64}[i%4]
		persistent, scratch := 1+r.Intn(12), r.Intn(6)
		p := randomProgram(r, wb, persistent, scratch, r.Intn(700))
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		q, err := Schedule(p, int32(persistent))
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		agree(t, r, p, q, int32(persistent))
	}
}

// TestSequentialRunEveryOpcode drives each opcode's run case on its own
// at every word width.
func TestSequentialRunEveryOpcode(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, wb := range []int{8, 16, 32, 64} {
		for op := Op(0); op < numOps; op++ {
			p := randomProgram(r, wb, 16, 0, 0)
			for len(p.Code) < 40 {
				in := randomProgram(r, wb, 16, 0, 1).Code[0]
				if in.Op == op {
					p.Code = append(p.Code, in)
				}
			}
			q, err := Schedule(p, int32(p.NumVars))
			if err != nil {
				t.Fatal(err)
			}
			agree(t, r, p, q, int32(p.NumVars))
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	p := randomProgram(rand.New(rand.NewSource(3)), 32, 10, 4, 1000)
	a, err := Schedule(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same program scheduled twice differently")
	}
}

// TestScheduleClusters checks the point of the exercise: independent
// instructions of alternating opcodes come out as one run per opcode,
// and a scratch slot reused by unrelated gates no longer orders them.
func TestScheduleClusters(t *testing.T) {
	p := &Program{WordBits: 32, NumVars: 41}
	for g := 0; g < 20; g++ {
		// s40 = in & in; out = s40 | in: every gate reuses scratch s40.
		p.Code = append(p.Code,
			Instr{Op: OpAnd, Dst: 40, A: int32(g), B: int32((g + 1) % 20)},
			Instr{Op: OpOr, Dst: int32(20 + g), A: 40, B: int32(g)})
	}
	q, err := Schedule(p, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got := OpRuns(p.Code); got != 40 {
		t.Fatalf("emitted runs = %d, want 40", got)
	}
	if q.Runs() != 2 {
		t.Errorf("scheduled runs = %d, want 2 (all ands, then all ors)", q.Runs())
	}
	if q.NumVars() != 41+20 {
		t.Errorf("NumVars = %d, want %d (one slot per fresh scratch definition)", q.NumVars(), 41+20)
	}
	agree(t, rand.New(rand.NewSource(4)), p, q, 40)
}

// TestSchedulePinsScratchReadOnEntry: a scratch slot read before any
// write carries a value across runs, so its writers keep its name.
func TestSchedulePinsScratchReadOnEntry(t *testing.T) {
	p := &Program{WordBits: 8, NumVars: 4, Code: []Instr{
		{Op: OpXor, Dst: 0, A: 3, B: 1}, // reads s3 from the previous run
		{Op: OpAnd, Dst: 3, A: 0, B: 2},
		{Op: OpNot, Dst: 3, A: 3, B: None},
	}}
	q, err := Schedule(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVars() != 4 {
		t.Errorf("NumVars = %d, want 4: the pinned scratch slot must not be renamed", q.NumVars())
	}
	agree(t, rand.New(rand.NewSource(5)), p, q, 3)
}

// checkFixture is a program with a reused scratch slot (4), an
// accumulation and two back-to-back writes of a persistent slot.
func checkFixture() *Program {
	return &Program{WordBits: 8, NumVars: 6, Code: []Instr{
		0: {Op: OpAnd, Dst: 4, A: 0, B: 1},
		1: {Op: OpOr, Dst: 2, A: 4, B: 1},
		2: {Op: OpXor, Dst: 4, A: 0, B: 1},
		3: {Op: OpOr, Dst: 3, A: 4, B: 0},
		4: {Op: OpAnd, Dst: 5, A: 2, B: 3},
		5: {Op: OpOrMove, Dst: 2, A: 5, B: None},
		6: {Op: OpConst0, Dst: 1, A: None, B: None},
		7: {Op: OpConst1, Dst: 1, A: None, B: None},
	}}
}

// rebuildRuns recomputes a mutated schedule's runs, so the check
// rejects the mutation itself rather than stale run bounds.
func rebuildRuns(q *Sequential) {
	q.runs = q.runs[:0]
	for i := range q.code {
		if i+1 == len(q.code) || q.code[i+1].Op != q.code[i].Op {
			q.runs = append(q.runs, opRun{op: q.code[i].Op, end: int32(i + 1)})
		}
	}
}

// TestCheckRejectsMutants is the check's mutation suite: each broken
// schedule must be refused with a reason naming the defect.
func TestCheckRejectsMutants(t *testing.T) {
	pos := func(s *scheduler, o int32) int {
		for j, e := range s.perm {
			if e == o {
				return j
			}
		}
		t.Fatalf("instruction %d not placed", o)
		return -1
	}
	swap := func(q *Sequential, s *scheduler, a, b int) {
		q.code[a], q.code[b] = q.code[b], q.code[a]
		s.perm[a], s.perm[b] = s.perm[b], s.perm[a]
	}
	for _, m := range []struct {
		name, want string
		mutate     func(q *Sequential, s *scheduler)
	}{
		{"swapped dependent pair", "operand", func(q *Sequential, s *scheduler) {
			swap(q, s, pos(s, 0), pos(s, 1)) // the consumer of s4 now runs first
		}},
		{"stale scratch rename", "operand", func(q *Sequential, s *scheduler) {
			q.code[pos(s, 3)].A = q.code[pos(s, 0)].Dst // reads the first s4, not the second
		}},
		{"swapped persistent writes", "persistent slot 1", func(q *Sequential, s *scheduler) {
			swap(q, s, pos(s, 6), pos(s, 7))
		}},
		{"dropped instruction", "instructions", func(q *Sequential, s *scheduler) {
			j := pos(s, 5)
			q.code = append(q.code[:j:j], q.code[j+1:]...)
			s.perm = append(s.perm[:j:j], s.perm[j+1:]...)
		}},
		{"duplicated instruction", "twice", func(q *Sequential, s *scheduler) {
			q.code[1], s.perm[1] = q.code[0], s.perm[0]
		}},
		{"wrong run opcode", "run", func(q *Sequential, s *scheduler) {
			q.runs[0].op = OpNop
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			p := checkFixture()
			s := new(scheduler)
			q := s.schedule(p, 4)
			if err := s.check(p, 4, q); err != nil {
				t.Fatalf("unmutated schedule rejected: %v", err)
			}
			m.mutate(q, s)
			if m.name != "wrong run opcode" {
				rebuildRuns(q)
			}
			err := s.check(p, 4, q)
			if err == nil {
				t.Fatal("mutant accepted")
			}
			if !strings.Contains(err.Error(), m.want) {
				t.Errorf("rejected for the wrong reason: %v", err)
			}
		})
	}
}

// FuzzSchedule: every valid program schedules, the check accepts it, the
// schedule is deterministic, and it computes what emission order does.
func FuzzSchedule(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4, 42} {
		f.Add(seed, uint8(seed*37), uint16(300*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, n uint16) {
		r := rand.New(rand.NewSource(seed))
		wb := []int{8, 16, 32, 64}[shape&3]
		persistent, scratch := 1+int(shape>>2&7), int(shape>>5)
		p := randomProgram(r, wb, persistent, scratch, int(n)%1200)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		q, err := Schedule(p, int32(persistent))
		if err != nil {
			t.Fatal(err)
		}
		again, err := Schedule(p, int32(persistent))
		if err != nil || !reflect.DeepEqual(q, again) {
			t.Fatalf("rescheduling differs (err %v)", err)
		}
		agree(t, r, p, q, int32(persistent))
	})
}

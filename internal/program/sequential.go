package program

import (
	"fmt"
	"sync"
	"unsafe"
)

// Sequential execution form.
//
// The compilers emit their straight-line code gate by gate, so adjacent
// instructions rarely share an opcode and Exec's per-instruction switch
// takes a fresh indirect jump almost every time. Schedule reorders a
// program into an equivalent stream in which instructions with the same
// opcode sit back to back, and Sequential.Run switches once per such run.
// Only whole-program sequential execution uses it: the emission-order
// Program stays the artifact that verification, code generation, the
// native backend and the shard planner see, and the gated level loop
// keeps running contiguous emission-order ranges through Exec.

// schedWindow is how many consecutive emission-order instructions are
// list-scheduled together. Windows run in emission order, so every
// dependency between windows holds by construction.
const schedWindow = 256

// opRun is a maximal stretch of same-opcode instructions of a schedule.
type opRun struct {
	op  Op
	end int32 // exclusive end index into Sequential.code
}

// Sequential is a program in sequential execution form: the same
// instructions as its source program, with every fresh scratch
// definition renamed to a slot of its own at or above the source's
// NumVars, reordered within fixed windows into same-opcode runs. It is
// built only by Schedule, which proves it equivalent to the source
// before returning it, so the run loop never sees unscheduled code.
type Sequential struct {
	wordBits int
	numVars  int
	code     []Instr
	runs     []opRun
}

// NumVars returns the number of state words Run addresses: the source
// program's plus one per renamed scratch definition.
func (q *Sequential) NumVars() int { return q.numVars }

// Runs returns the number of opcode runs, i.e. dispatches per Run.
func (q *Sequential) Runs() int { return len(q.runs) }

// Bytes returns the memory held by the form's instruction and run arrays.
func (q *Sequential) Bytes() int64 {
	return int64(len(q.code))*int64(unsafe.Sizeof(Instr{})) + int64(len(q.runs))*int64(unsafe.Sizeof(opRun{}))
}

// Bytes returns the memory held by the program's instruction array.
func (p *Program) Bytes() int64 { return int64(len(p.Code)) * int64(unsafe.Sizeof(Instr{})) }

// OpRuns returns the number of maximal same-opcode runs in code: the
// dispatches a run-at-a-time loop would take over it as emitted.
func OpRuns(code []Instr) int {
	n := 0
	for i := range code {
		if i == 0 || code[i].Op != code[i-1].Op {
			n++
		}
	}
	return n
}

// Schedule builds the sequential execution form of p, which must be
// valid (Validate). Slots below scratchStart are persistent: the runtime
// and the next vector read them, so each keeps its final writer. Slots
// at or above scratchStart are scratch, dead when the program ends;
// every non-accumulating write to one starts a fresh value that gets a
// slot of its own, so reused scratch no longer orders unrelated gates.
// A scratch slot read before any write in p holds a value from outside
// the program and keeps its name and its writers.
//
// The result is deterministic: the same program always gives the same
// schedule. Before returning, a linear check proves that every operand
// read of the schedule resolves to the same producing instruction as in
// emission order and that every persistent slot ends with the same last
// writer; a failure is reported as an error, never executed.
func Schedule(p *Program, scratchStart int32) (*Sequential, error) {
	s := schedulers.Get().(*scheduler)
	defer schedulers.Put(s)
	q := s.schedule(p, scratchStart)
	if err := s.check(p, scratchStart, q); err != nil {
		return nil, err
	}
	return q, nil
}

// schedule renames and list-schedules p, leaving in s.perm the emission
// index of every scheduled instruction for the check.
func (s *scheduler) schedule(p *Program, scratchStart int32) *Sequential {
	n := len(p.Code)
	src, code := p.Code, make([]Instr, n)
	numVars := p.NumVars
	if scratchStart < int32(p.NumVars) {
		numVars = s.renameScratch(code, p.Code, scratchStart, int32(p.NumVars))
		src = code
	}
	s.reset(numVars, n)
	for lo := 0; lo < n; lo += schedWindow {
		s.window(src, code, lo, min(lo+schedWindow, n))
	}
	return &Sequential{wordBits: p.WordBits, numVars: numVars, code: code, runs: s.runs}
}

// renameScratch copies src into dst, giving every fresh definition of a
// scratch slot (at or above scratchStart) its own slot from numVars
// upward, and returns the resulting state size. cur holds, per scratch
// slot, 0 before its first reference, -1 once it was read before any
// write (it keeps its own name), and otherwise 1 + its current name.
func (s *scheduler) renameScratch(dst, src []Instr, scratchStart, numVars int32) int {
	s.cur = zeroed(s.cur, int(numVars-scratchStart))
	cur := s.cur
	next := numVars
	read := func(v int32) int32 {
		if v < scratchStart {
			return v
		}
		c := cur[v-scratchStart]
		if c > 0 {
			return c - 1
		}
		if c == 0 {
			cur[v-scratchStart] = -1
		}
		return v
	}
	for i := range src {
		in := src[i]
		if in.Op != OpNop {
			f := opReads[in.Op]
			if f&readsA != 0 {
				in.A = read(in.A)
			}
			if f&readsB != 0 && in.B != None {
				in.B = read(in.B)
			}
			if d := in.Dst; d >= scratchStart {
				if f&readsDst != 0 {
					in.Dst = read(d)
				} else if cur[d-scratchStart] >= 0 {
					cur[d-scratchStart] = next + 1
					in.Dst = next
					next++
				}
			}
		}
		dst[i] = in
	}
	return int(next)
}

// edge is a successor link of the window's dependence graph.
type edge struct{ to, next int32 }

// reader is one entry of a slot's list of reads since its last write.
type reader struct{ node, next int32 }

// slotDeps is the scheduler's per-slot state. It is not reset between
// windows: an entry counts only when it points into the current window
// (lastW against the window's first instruction, rhead against its first
// reader entry), and both hold 1 + the index so zero reads as empty.
type slotDeps struct {
	lastW int32 // 1 + global index of the slot's last writer
	rhead int32 // 1 + global id of the slot's newest reader entry
}

// scheduler holds Schedule's buffers: the list scheduler's, reused by
// every window, and the check's. Schedulers are pooled because the
// compilers schedule program after program; fresh arrays would add their
// size to every compile's garbage.
type scheduler struct {
	slots []slotDeps
	nents int32                   // reader entries issued so far, over all windows
	ents  [3 * schedWindow]reader // a window's reads, at most three per instruction
	edges [7 * schedWindow]edge   // a window's dependences: one per read, one per write, one per earlier read it overwrites
	runs  []opRun                 // the schedule's runs so far
	perm  []int32                 // per scheduled position: its emission index
	cur   []int32                 // renameScratch's per-scratch-slot names
	succ  [schedWindow]int32      // per node: head of its successor list, -1 none
	indeg [schedWindow]int32
	win   [schedWindow]Instr
	queue [numOps][schedWindow]int16

	// check's arrays.
	prod, lastE, lastS []int32
	entry, seen        []bool
}

var schedulers = sync.Pool{New: func() any { return new(scheduler) }}

// zeroed returns b resized to n zero elements, reusing its storage.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// reset prepares the scheduler for a program of n instructions over
// numVars slots.
func (s *scheduler) reset(numVars, n int) {
	s.slots = zeroed(s.slots, numVars)
	s.perm = zeroed(s.perm, n)
	s.nents = 0
	s.runs = nil
}

// window list-schedules src[lo:hi] into dst[lo:hi] (which may be the
// same slice), recording each scheduled instruction's emission index in
// s.perm and extending s.runs. An instruction depends on the last
// writer of every slot it reads or writes and, when it writes a slot, on
// every read of that slot since. Greedy policy: drain the opcode with
// the most ready instructions (instructions becoming ready meanwhile
// join the run), ties to the lower opcode; a window opens with the
// previous window's last opcode when any of it is ready, so runs
// continue across the boundary.
func (s *scheduler) window(src, dst []Instr, lo, hi int) {
	n := int32(hi - lo)
	base, ebase := int32(lo), s.nents
	slots, ents, edges := s.slots, &s.ents, &s.edges
	succ, indeg, win := &s.succ, &s.indeg, &s.win
	var nent, nedge int32
	for li := int32(0); li < n; li++ {
		succ[li], indeg[li] = -1, 0
		in := src[lo+int(li)]
		win[li] = in
		if in.Op == OpNop {
			continue
		}
		var reads [3]int32
		nr := 0
		f := opReads[in.Op]
		if f&readsA != 0 {
			reads[nr] = in.A
			nr++
		}
		if f&readsB != 0 && in.B != None {
			reads[nr] = in.B
			nr++
		}
		if f&readsDst != 0 {
			reads[nr] = in.Dst
			nr++
		}
		for _, v := range reads[:nr] {
			sd := &slots[v]
			if w := sd.lastW - 1 - base; w >= 0 {
				edges[nedge] = edge{to: li, next: succ[w]}
				succ[w] = nedge
				nedge++
				indeg[li]++
			}
			ents[nent] = reader{node: li, next: sd.rhead - 1 - ebase}
			nent++
			sd.rhead = ebase + nent
		}
		sd := &slots[in.Dst]
		if w := sd.lastW - 1 - base; w >= 0 {
			edges[nedge] = edge{to: li, next: succ[w]}
			succ[w] = nedge
			nedge++
			indeg[li]++
		}
		for e := sd.rhead - 1 - ebase; e >= 0; e = ents[e].next {
			if r := ents[e].node; r != li {
				edges[nedge] = edge{to: li, next: succ[r]}
				succ[r] = nedge
				nedge++
				indeg[li]++
			}
		}
		sd.rhead = 0
		sd.lastW = base + li + 1
	}
	s.nents = ebase + nent

	var qh, qt [numOps]int32
	queue := &s.queue
	for li := int32(0); li < n; li++ {
		if indeg[li] == 0 {
			op := win[li].Op
			queue[op][qt[op]] = int16(li)
			qt[op]++
		}
	}
	best := pick(&qh, &qt)
	if k := len(s.runs); k > 0 && qt[s.runs[k-1].op] > 0 {
		best = s.runs[k-1].op
	}
	perm := s.perm
	for out := base; out < int32(hi); {
		if k := len(s.runs); k == 0 || s.runs[k-1].op != best {
			s.runs = append(s.runs, opRun{op: best})
		}
		q := &queue[best]
		for qh[best] < qt[best] {
			li := int32(q[qh[best]])
			qh[best]++
			dst[out] = win[li]
			perm[out] = base + li
			out++
			for e := succ[li]; e >= 0; e = edges[e].next {
				to := edges[e].to
				if indeg[to]--; indeg[to] == 0 {
					op := win[to].Op
					queue[op][qt[op]] = int16(to)
					qt[op]++
				}
			}
		}
		s.runs[len(s.runs)-1].end = out
		best = pick(&qh, &qt)
	}
}

// pick returns the opcode with the most ready instructions.
func pick(qh, qt *[numOps]int32) Op {
	best, most := Op(0), int32(0)
	for op := range qt {
		if k := qt[op] - qh[op]; k > most {
			best, most = Op(op), k
		}
	}
	return best
}

// check proves q equivalent to p, given s.perm[j] = the emission index
// of q's instruction j: s.perm is a permutation, each instruction
// keeps its opcode, shift and non-slot operands, every operand read
// resolves to the same producing instruction as in emission order (or,
// for a read of the value a slot holds on entry, to no producer and the
// same slot), every persistent slot ends with the same last writer, and
// the runs cover the code exactly with their own opcode. A slot is
// persistent when it lies below scratchStart or p reads it on entry.
// Producers are kept as 1 + instruction index, 0 meaning "on entry".
func (s *scheduler) check(p *Program, scratchStart int32, q *Sequential) error {
	n, perm := len(p.Code), s.perm
	if len(q.code) != n || len(perm) != n {
		return fmt.Errorf("program: schedule has %d instructions (%d placed) for %d", len(q.code), len(perm), n)
	}
	if q.numVars < p.NumVars {
		return fmt.Errorf("program: schedule addresses %d state words, fewer than the program's %d", q.numVars, p.NumVars)
	}
	s.prod = zeroed(s.prod, 3*n) // per instruction: producers of A, B and an accumulated Dst
	s.lastE = zeroed(s.lastE, p.NumVars)
	s.entry = zeroed(s.entry, p.NumVars) // read on entry
	prod, lastE, entry := s.prod, s.lastE, s.entry
	for i := range p.Code {
		in := &p.Code[i]
		if in.Op == OpNop {
			continue
		}
		f := opReads[in.Op]
		if f&readsA != 0 {
			prod[3*i] = lastE[in.A]
			entry[in.A] = entry[in.A] || lastE[in.A] == 0
		}
		if f&readsB != 0 && in.B != None {
			prod[3*i+1] = lastE[in.B]
			entry[in.B] = entry[in.B] || lastE[in.B] == 0
		}
		if f&readsDst != 0 {
			prod[3*i+2] = lastE[in.Dst]
			entry[in.Dst] = entry[in.Dst] || lastE[in.Dst] == 0
		}
		lastE[in.Dst] = int32(i + 1)
	}

	s.seen = zeroed(s.seen, n)
	s.lastS = zeroed(s.lastS, q.numVars)
	seen, lastS := s.seen, s.lastS
	for j := range q.code {
		o := int(perm[j])
		if o < 0 || o >= n || seen[o] {
			return fmt.Errorf("program: schedule position %d places instruction %d twice or out of range", j, o)
		}
		seen[o] = true
		got, want := q.code[j], p.Code[o]
		if got.Op != want.Op || got.Sh != want.Sh {
			return fmt.Errorf("program: schedule position %d: %+v is not instruction %d %+v", j, got, o, want)
		}
		if want.Op == OpNop {
			continue
		}
		f := opReads[want.Op]
		if f&readsB == 0 || want.B == None {
			if got.B != want.B {
				return fmt.Errorf("program: schedule position %d: %+v is not instruction %d %+v", j, got, o, want)
			}
		} else if !sameRead(lastS, got.B, want.B, prod[3*o+1]) {
			return readMismatch(j, o, "B", got.B, want.B, lastS, prod[3*o+1])
		}
		if f&readsA != 0 && !sameRead(lastS, got.A, want.A, prod[3*o]) {
			return readMismatch(j, o, "A", got.A, want.A, lastS, prod[3*o])
		}
		if f&readsDst != 0 && !sameRead(lastS, got.Dst, want.Dst, prod[3*o+2]) {
			return readMismatch(j, o, "Dst", got.Dst, want.Dst, lastS, prod[3*o+2])
		}
		if got.Dst < 0 || int(got.Dst) >= q.numVars {
			return fmt.Errorf("program: schedule position %d (instruction %d): destination slot %d out of range", j, o, got.Dst)
		}
		lastS[got.Dst] = int32(o + 1)
	}
	for v, w := range lastE {
		if (int32(v) < scratchStart || entry[v]) && lastS[v] != w {
			return fmt.Errorf("program: schedule leaves persistent slot %d written by %d, emission order by %d", v, lastS[v]-1, w-1)
		}
	}
	start := int32(0)
	for i, r := range q.runs {
		if r.end <= start || int(r.end) > n {
			return fmt.Errorf("program: schedule run %d ends at %d after %d", i, r.end, start)
		}
		for j := start; j < r.end; j++ {
			if q.code[j].Op != r.op {
				return fmt.Errorf("program: schedule run %d (%v) holds %v at %d", i, r.op, q.code[j].Op, j)
			}
		}
		start = r.end
	}
	if int(start) != n {
		return fmt.Errorf("program: schedule runs cover %d of %d instructions", start, n)
	}
	return nil
}

// sameRead reports whether a scheduled read of slot got sees producer
// prod, the emission-order producer of the same operand reading slot
// want: the same instruction, or for an on-entry read the same slot.
func sameRead(lastS []int32, got, want, prod int32) bool {
	return got >= 0 && int(got) < len(lastS) && lastS[got] == prod && (prod != 0 || got == want)
}

func readMismatch(j, o int, operand string, got, want int32, lastS []int32, prod int32) error {
	writer := int32(-2) // out of range
	if got >= 0 && int(got) < len(lastS) {
		writer = lastS[got] - 1
	}
	return fmt.Errorf("program: schedule position %d (instruction %d): operand %s reads slot %d written by %d, emission order reads slot %d written by %d",
		j, o, operand, got, writer, want, prod-1)
}

// Run executes the form over st, which must have at least NumVars words.
// The loop dispatches once per opcode run; each run's body is a tight
// loop over instructions of one opcode.
func (q *Sequential) Run(st []uint64) {
	mask := ^uint64(0)
	if q.wordBits < 64 {
		mask = (uint64(1) << q.wordBits) - 1
	}
	w := uint(q.wordBits)
	code := q.code
	start := int32(0)
	for _, r := range q.runs {
		c := code[start:r.end]
		start = r.end
		switch r.op {
		case OpAnd:
			for i := range c {
				in := &c[i]
				st[in.Dst] = st[in.A] & st[in.B]
			}
		case OpOr:
			for i := range c {
				in := &c[i]
				st[in.Dst] = st[in.A] | st[in.B]
			}
		case OpXor:
			for i := range c {
				in := &c[i]
				st[in.Dst] = st[in.A] ^ st[in.B]
			}
		case OpNand:
			for i := range c {
				in := &c[i]
				st[in.Dst] = mask &^ (st[in.A] & st[in.B])
			}
		case OpNor:
			for i := range c {
				in := &c[i]
				st[in.Dst] = mask &^ (st[in.A] | st[in.B])
			}
		case OpXnor:
			for i := range c {
				in := &c[i]
				st[in.Dst] = mask &^ (st[in.A] ^ st[in.B])
			}
		case OpNot:
			for i := range c {
				in := &c[i]
				st[in.Dst] = mask &^ st[in.A]
			}
		case OpMove:
			for i := range c {
				in := &c[i]
				st[in.Dst] = st[in.A]
			}
		case OpOrMove:
			for i := range c {
				in := &c[i]
				st[in.Dst] |= st[in.A]
			}
		case OpConst0:
			for i := range c {
				st[c[i].Dst] = 0
			}
		case OpConst1:
			for i := range c {
				st[c[i].Dst] = mask
			}
		case OpShlOr:
			for i := range c {
				in := &c[i]
				v := st[in.A] << in.Sh
				if in.B != None {
					v |= st[in.B] >> (w - uint(in.Sh))
				}
				st[in.Dst] |= v & mask
			}
		case OpShlMove:
			for i := range c {
				in := &c[i]
				v := st[in.A] << in.Sh
				if in.B != None {
					v |= st[in.B] >> (w - uint(in.Sh))
				}
				st[in.Dst] = v & mask
			}
		case OpShrMove:
			for i := range c {
				in := &c[i]
				v := (st[in.A] & mask) >> in.Sh
				if in.B != None {
					v |= st[in.B] << (w - uint(in.Sh))
				}
				st[in.Dst] = v & mask
			}
		case OpFill:
			for i := range c {
				in := &c[i]
				st[in.Dst] = (0 - (st[in.A] >> in.Sh & 1)) & mask
			}
		case OpBit:
			for i := range c {
				in := &c[i]
				st[in.Dst] = st[in.A] >> in.Sh & 1
			}
		case OpFillLowN:
			for i := range c {
				in := &c[i]
				low := (^uint64(0)) >> (64 - uint(in.B))
				st[in.Dst] = (0 - (st[in.A] >> in.Sh & 1)) & low
			}
		case OpNop:
		}
	}
}

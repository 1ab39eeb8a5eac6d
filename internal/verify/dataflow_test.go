// Mutation tests for the dataflow rules V009, V011 and V012: starting
// from real compiled programs (and real shard plans) the analyzer
// certifies clean, each mutation plants one specific defect and must be
// caught under the matching rule with a usable witness.
package verify_test

import (
	"reflect"
	"strings"
	"testing"

	"udsim/internal/parsim"
	"udsim/internal/program"
	"udsim/internal/shard"
	"udsim/internal/verify"
)

// hasErrorRule reports whether the report has an error-severity finding
// under the rule.
func hasErrorRule(r *verify.Report, rule string) bool {
	for _, f := range r.Findings {
		if f.Rule == rule && f.Severity == verify.SevError {
			return true
		}
	}
	return false
}

// TestMutationDropLoopLiveOut removes from LiveOut the top word of an
// internal net that the next vector's init reads: the single-pass census
// then calls the word's producer dead, while the vector-loop fixpoint
// proves it live — exactly the disagreement rule V009 exists to catch
// (an under-declared LiveOut would let the dead-store eliminator corrupt
// the next vector).
func TestMutationDropLoopLiveOut(t *testing.T) {
	spec := cloneSpec(compileSpec(t, parsim.Config{}))
	dropLoopLiveOut(t, spec)
	r := verify.Check(spec, verify.Options{})
	if !hasErrorRule(r, verify.RuleLoopLive) {
		t.Fatalf("dropped loop live-out not detected as %s:\n%s", verify.RuleLoopLive, r)
	}
}

// dropLoopLiveOut removes from spec.LiveOut one slot the vector loop
// actually carries: in LiveOut, read by init, written by sim, and not
// runtime-written (input words are re-pinned every vector).
func dropLoopLiveOut(t *testing.T, spec *verify.Spec) {
	t.Helper()
	initReads := map[int32]bool{}
	var buf []int32
	for i := range spec.Init.Code {
		buf = spec.Init.Code[i].ReadSlots(buf[:0])
		for _, s := range buf {
			initReads[s] = true
		}
	}
	simWrites := map[int32]bool{}
	for i := range spec.Sim.Code {
		if in := &spec.Sim.Code[i]; in.Writes() {
			simWrites[in.Dst] = true
		}
	}
	rtw := map[int32]bool{}
	for _, s := range spec.RuntimeWritten {
		rtw[s] = true
	}
	for k, s := range spec.LiveOut {
		if initReads[s] && simWrites[s] && !rtw[s] {
			spec.LiveOut = append(spec.LiveOut[:k], spec.LiveOut[k+1:]...)
			return
		}
	}
	t.Fatal("no loop-carried live-out slot found")
}

// TestMutationCollidingAccumulation redirects one packing shift onto
// another's destination word: two time phases then land on the same bit
// positions. Word-level single assignment (V002) cannot see it —
// OR-accumulation is a legal second write — but the bit-interval lattice
// (V011) must.
func TestMutationCollidingAccumulation(t *testing.T) {
	base := compileSpec(t, parsim.Config{})
	var shlors []int
	for i := range base.Sim.Code {
		if in := &base.Sim.Code[i]; in.Op == program.OpShlOr && in.B == program.None {
			shlors = append(shlors, i)
		}
	}
	if len(shlors) < 2 {
		t.Fatal("need two carry-free ShlOr instructions")
	}
	for _, j := range shlors[1:] {
		spec := cloneSpec(base)
		first := spec.Sim.Code[shlors[0]]
		in := &spec.Sim.Code[j]
		if in.Dst == first.Dst {
			continue
		}
		in.Dst = first.Dst
		if r := verify.Check(spec, verify.Options{}); hasErrorRule(r, verify.RuleInterval) {
			return // detected
		}
	}
	t.Fatalf("no redirected accumulation detected as %s", verify.RuleInterval)
}

// shardedSpec compiles c432, levels it with shard.Partition and attaches
// a 2-shard schedule of that leveling: within each program-order run of
// one level's instructions, the pieces between independent neighbours
// (no instruction after the cut reads a slot written before it within
// the run, or writes a persistent slot accessed before it) go to the two
// shards in turn, so the schedule is race-free.
func shardedSpec(t *testing.T) *verify.Spec {
	t.Helper()
	spec := compileSpec(t, parsim.Config{})
	plan, err := shard.Partition(spec.Sim, spec.ScratchStart)
	if err != nil {
		t.Fatal(err)
	}
	one, code := plan.Assignment(), spec.Sim.Code
	two := &verify.ShardAssignment{
		Workers: 2,
		Levels:  one.Levels,
		Level:   append([]int32(nil), one.Level...),
		Shard:   make([]int32, len(code)),
	}
	var buf []int32
	for lo := 0; lo < len(code); {
		hi := lo
		for hi < len(code) && one.Level[hi] == one.Level[lo] {
			hi++
		}
		// dep[k]: the earliest instruction of the run that k depends on:
		// the last writer of each slot it reads and, for a persistent
		// destination, its earliest access since (and including) the
		// previous write. Scratch writes conflict with nothing, since each
		// shard has its own scratch.
		dep := make([]int, hi-lo)
		lastW := map[int32]int{}
		firstAcc := map[int32]int{}
		for k := lo; k < hi; k++ {
			dep[k-lo] = k
			in := &code[k]
			buf = in.ReadSlots(buf[:0])
			for _, sl := range buf {
				if w, ok := lastW[sl]; ok && w < dep[k-lo] {
					dep[k-lo] = w
				}
				if _, ok := firstAcc[sl]; !ok && sl < spec.ScratchStart {
					firstAcc[sl] = k
				}
			}
			if in.Writes() {
				if a, ok := firstAcc[in.Dst]; ok && a < dep[k-lo] {
					dep[k-lo] = a
				}
				lastW[in.Dst] = k
				if in.Dst < spec.ScratchStart {
					firstAcc[in.Dst] = k
				}
			}
		}
		// A cut before k is safe when nothing from k on depends on an
		// instruction before k.
		cut := make([]bool, hi-lo)
		for k, m := hi-1, hi; k > lo; k-- {
			m = min(m, dep[k-lo])
			cut[k-lo] = m >= k
		}
		var sh int32
		for k := lo; k < hi; k++ {
			if cut[k-lo] {
				sh ^= 1
			}
			two.Shard[k] = sh
		}
		lo = hi
	}
	spec.Shards = two
	if err := verify.Check(spec, verify.Options{}).Err(); err != nil {
		t.Fatalf("baseline sharded spec not clean: %v", err)
	}
	return spec
}

// raceWitness returns the first V012 error finding whose message names
// the given race kind, checking the witness carries real coordinates.
func raceWitness(t *testing.T, r *verify.Report, kind string) *verify.Finding {
	t.Helper()
	for i := range r.Findings {
		f := &r.Findings[i]
		if f.Rule != verify.RuleRace || f.Severity != verify.SevError {
			continue
		}
		if !strings.Contains(f.Msg, kind) {
			continue
		}
		if f.Prog != "sim" || f.Instr < 0 || f.Slot < 0 {
			t.Fatalf("V012 witness missing coordinates: %+v", f)
		}
		if !strings.Contains(f.Msg, "level") || !strings.Contains(f.Msg, "shard") {
			t.Fatalf("V012 witness missing level/shard coordinates: %s", f.Msg)
		}
		return f
	}
	return nil
}

// TestMutationScratchEscape moves a scratch consumer onto another shard:
// it would read its own private arena's stale word, never the producer's
// value. The plan mutation must surface as a V012 scratch-escape witness.
func TestMutationScratchEscape(t *testing.T) {
	base := shardedSpec(t)
	var buf []int32
	for j := range base.Sim.Code {
		buf = base.Sim.Code[j].ReadSlots(buf[:0])
		scratch := false
		for _, s := range buf {
			if s >= base.ScratchStart {
				scratch = true
			}
		}
		if !scratch {
			continue
		}
		spec := cloneSpec(base)
		sh := spec.Shards
		sh.Shard[j] = (sh.Shard[j] + 1) % int32(sh.Workers)
		r := verify.Check(spec, verify.Options{})
		if w := raceWitness(t, r, "scratch-escape"); w != nil {
			return
		}
	}
	t.Fatalf("no shard reassignment detected as a %s scratch escape", verify.RuleRace)
}

// TestMutationUnorderedWriters redirects a persistent write to collide
// with a same-level write on a different shard: the surviving value then
// depends on shard timing. Must surface as a V012 witness (write-write,
// or stale-read when a consumer sits between the two).
func TestMutationUnorderedWriters(t *testing.T) {
	base := shardedSpec(t)
	sh := base.Shards
	// Index persistent fresh writes by level.
	type w struct {
		instr int
		shard int32
	}
	byLevel := map[int32][]w{}
	for i := range base.Sim.Code {
		in := &base.Sim.Code[i]
		if in.Writes() && in.Dst < base.ScratchStart {
			byLevel[sh.Level[i]] = append(byLevel[sh.Level[i]], w{i, sh.Shard[i]})
		}
	}
	for lvl, ws := range byLevel {
		for _, a := range ws {
			for _, b := range ws {
				if a.shard == b.shard || a.instr >= b.instr {
					continue
				}
				spec := cloneSpec(base)
				spec.Sim.Code[b.instr].Dst = spec.Sim.Code[a.instr].Dst
				r := verify.Check(spec, verify.Options{})
				if raceWitness(t, r, "write-write") != nil || raceWitness(t, r, "stale-read") != nil ||
					raceWitness(t, r, "write-after-read") != nil {
					return
				}
				t.Fatalf("colliding writers at level %d not detected as %s:\n%s",
					lvl, verify.RuleRace, r)
			}
		}
	}
	t.Skip("no same-level cross-shard persistent writer pair found")
}

// TestFindingOrderDeterministic checks the report is byte-identical
// across repeated runs on a spec that produces many findings across
// several rules.
func TestFindingOrderDeterministic(t *testing.T) {
	base := shardedSpec(t)
	// Stack mutations: a shard reassignment plus a dropped live-out slot.
	spec := cloneSpec(base)
	spec.Shards.Shard[len(spec.Shards.Shard)/2] =
		(spec.Shards.Shard[len(spec.Shards.Shard)/2] + 1) % int32(spec.Shards.Workers)
	dropLoopLiveOut(t, spec)

	r1 := verify.Check(spec, verify.Options{ReportDead: true})
	r2 := verify.Check(spec, verify.Options{ReportDead: true})
	if len(r1.Findings) == 0 {
		t.Fatal("mutations produced no findings")
	}
	if !reflect.DeepEqual(r1.Findings, r2.Findings) {
		t.Fatalf("finding order not deterministic:\n%s\nvs\n%s", r1, r2)
	}
	if r1.String() != r2.String() {
		t.Fatal("report rendering not deterministic")
	}
}

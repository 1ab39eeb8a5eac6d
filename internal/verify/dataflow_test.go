// Mutation tests for the dataflow rules V009 and V011: starting from
// real compiled programs the analyzer certifies clean, each mutation
// plants one specific defect and must be caught under the matching rule.
package verify_test

import (
	"reflect"
	"testing"

	"udsim/internal/parsim"
	"udsim/internal/program"
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
	if collideAccumulation(t, compileSpec(t, parsim.Config{})) == nil {
		t.Fatalf("no redirected accumulation detected as %s", verify.RuleInterval)
	}
}

// collideAccumulation returns a copy of base with one carry-free ShlOr
// redirected onto an earlier one's destination word — the first such
// redirection rule V011 flags — or nil when none is flagged.
func collideAccumulation(t *testing.T, base *verify.Spec) *verify.Spec {
	t.Helper()
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
			return spec
		}
	}
	return nil
}

// TestFindingOrderDeterministic checks the report is byte-identical
// across repeated runs on a spec that produces many findings across
// several rules.
func TestFindingOrderDeterministic(t *testing.T) {
	// Stack mutations: a colliding accumulation plus a dropped live-out
	// slot.
	spec := collideAccumulation(t, compileSpec(t, parsim.Config{}))
	if spec == nil {
		t.Fatalf("no redirected accumulation detected as %s", verify.RuleInterval)
	}
	dropLoopLiveOut(t, spec)

	r1 := verify.Check(spec, verify.Options{ReportDead: true})
	r2 := verify.Check(spec, verify.Options{ReportDead: true})
	for _, rule := range []string{verify.RuleLoopLive, verify.RuleInterval} {
		if !hasErrorRule(r1, rule) {
			t.Fatalf("mutations produced no %s finding:\n%s", rule, r1)
		}
	}
	if !reflect.DeepEqual(r1.Findings, r2.Findings) {
		t.Fatalf("finding order not deterministic:\n%s\nvs\n%s", r1, r2)
	}
	if r1.String() != r2.String() {
		t.Fatal("report rendering not deterministic")
	}
}

package verify

import (
	"strings"
	"testing"

	"udsim/internal/circuit"
	"udsim/internal/logic"
	"udsim/internal/resub"
)

// resubFixture runs the optimizer on a circuit with one duplicate cone,
// one complement pair and one constant, so the certificate has every
// kind of entry.
func resubFixture(t *testing.T) *resub.Result {
	t.Helper()
	b := circuit.NewBuilder("fixture")
	a := b.Input("a")
	x := b.Input("x")
	d1 := b.Gate(logic.Xor, "d1", a, x)
	d2 := b.Gate(logic.Xor, "d2", x, a)
	nd := b.Gate(logic.Xnor, "nd", a, x)
	na := b.Gate(logic.Not, "na", a)
	k := b.Gate(logic.And, "k", a, na)
	o1 := b.Gate(logic.Or, "o1", d1, k)
	o2 := b.Gate(logic.And, "o2", d2, nd)
	b.Output(o1)
	b.Output(o2)
	c := b.MustBuild()
	res, err := resub.Run(c, resub.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cert.Merges) == 0 || len(res.Cert.Constants) == 0 {
		t.Fatalf("fixture did not exercise both merge and constant paths: %+v", res.Cert)
	}
	return res
}

func TestCheckRewriteClean(t *testing.T) {
	res := resubFixture(t)
	rep := CheckRewrite(res)
	if !rep.Clean() {
		t.Fatalf("clean rewrite flagged:\n%s", rep)
	}
	if rep.Name != "resub" {
		t.Errorf("report name %q", rep.Name)
	}
}

func TestCheckRewriteNetMapTamper(t *testing.T) {
	res := resubFixture(t)
	// Point an arbitrary mapped net at a nonexistent target.
	for k := range res.Cert.NetMap {
		res.Cert.NetMap[k] = "no-such-net"
		break
	}
	rep := CheckRewrite(res)
	if !rep.HasRule(RuleRewrite) || rep.Count(SevError) == 0 {
		t.Fatalf("tampered net map not flagged by V013:\n%s", rep)
	}
}

func TestCheckRewriteCensusTamper(t *testing.T) {
	res := resubFixture(t)
	res.Cert.GatesAfter += 3
	rep := CheckRewrite(res)
	if !rep.HasRule(RuleRewrite) {
		t.Fatalf("census tamper not flagged:\n%s", rep)
	}
}

func TestCheckRewriteBogusMerge(t *testing.T) {
	res := resubFixture(t)
	// Claim two genuinely different nets were merged: V014 must refute
	// the replayed proof with a counterexample.
	res.Cert.Merges = append(res.Cert.Merges, resub.Merge{
		Dup: "o1", Rep: "a", VectorsTried: 4, Exhaustive: true,
	})
	rep := CheckRewrite(res)
	if !rep.HasRule(RuleCert) || rep.Count(SevError) == 0 {
		t.Fatalf("bogus merge not refuted by V014:\n%s", rep)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Rule == RuleCert && f.Severity == SevError && strings.Contains(f.Msg, "refuted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no refutation finding:\n%s", rep)
	}
}

func TestCheckRewriteBogusConstant(t *testing.T) {
	res := resubFixture(t)
	res.Cert.Constants = append(res.Cert.Constants, resub.Constant{
		Net: "d1", Value: true, VectorsTried: 4, Exhaustive: true,
	})
	rep := CheckRewrite(res)
	if !rep.HasRule(RuleCert) || rep.Count(SevError) == 0 {
		t.Fatalf("bogus constant not refuted:\n%s", rep)
	}
}

// TestCheckRewriteTamperedOptimized swaps the optimized circuit for one
// computing a different function of the same boundary: the end-to-end
// equivalence leg of V014 must catch it even though the netlist is
// structurally valid and the per-merge proofs replay fine.
func TestCheckRewriteTamperedOptimized(t *testing.T) {
	res := resubFixture(t)
	b := circuit.NewBuilder(res.Original.Name)
	a := b.Input("a")
	x := b.Input("x")
	o1 := b.Gate(logic.And, "o1", a, x) // was OR(XOR(a,x), 0)
	o2 := b.Gate(logic.Or, "o2", a, x)
	b.Output(o1)
	b.Output(o2)
	evil := b.MustBuild()
	res.Optimized = evil
	res.Cert.GatesAfter = evil.NumGates()
	res.Cert.NetsAfter = evil.NumNets()
	rep := CheckRewrite(res)
	if !rep.HasRule(RuleCert) || rep.Count(SevError) == 0 {
		t.Fatalf("functionally different optimized circuit not caught:\n%s", rep)
	}
}

func TestCheckRewriteMissingNet(t *testing.T) {
	res := resubFixture(t)
	res.Cert.Merges[0].Dup = "ghost"
	rep := CheckRewrite(res)
	if !rep.HasRule(RuleCert) {
		t.Fatalf("missing merge net not flagged:\n%s", rep)
	}
}

// TestRuleDocsCoverResubRules pins the rules above V011 — the
// resubstitution pair and the translation-validation rule — into the
// output drivers' rule table in identifier order.
func TestRuleDocsCoverResubRules(t *testing.T) {
	var ids []string
	for _, d := range RuleDocs {
		ids = append(ids, d.ID)
	}
	want := []string{RuleRewrite, RuleCert, RuleLift}
	if len(ids) < len(want) {
		t.Fatalf("RuleDocs too short: %v", ids)
	}
	for i, w := range want {
		if got := ids[len(ids)-len(want)+i]; got != w {
			t.Fatalf("RuleDocs tail %v, want suffix %v", ids, want)
		}
	}
	if len(ids) != 12 {
		t.Fatalf("expected 12 documented rules, got %d", len(ids))
	}
}

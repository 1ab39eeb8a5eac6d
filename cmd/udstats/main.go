// Command udstats reports the static analyses behind the paper's
// experiments for one circuit: levels, PC-set statistics, per-technique
// code sizes, bit-field widths and retained shifts under each alignment
// algorithm.
//
// Usage:
//
//	udstats -gen c432
//	udstats -bench mycircuit.bench -wordbits 32
//	udstats -gen c499 -resub           # resubstitution census (merged/const/stripped)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"udsim"
	"udsim/internal/align"
	"udsim/internal/codegen"
	"udsim/internal/codegen/ir"
	"udsim/internal/codegen/validate"
	"udsim/internal/levelize"
	"udsim/internal/parsim"
	"udsim/internal/pcset"
	"udsim/internal/program"
	"udsim/internal/scoap"
	"udsim/internal/stats"
	"udsim/internal/texttable"
	"udsim/internal/verify"
)

func main() {
	var (
		benchFile = flag.String("bench", "", "netlist file (.bench or structural .v)")
		genName   = flag.String("gen", "", "synthesize a benchmark profile (c432..c7552)")
		wordBits  = flag.Int("wordbits", 32, "parallel-technique word width")
		doVerify  = flag.Bool("verify", false, "run the static analyzer and report dead code and word utilization")
		doResub   = flag.Bool("resub", false, "run the simulation-guided resubstitution pass and report the merged/constant/stripped-net census")
	)
	flag.Parse()

	var c *udsim.Circuit
	var err error
	switch {
	case *benchFile != "":
		c, err = udsim.LoadCircuitFile(*benchFile)
	case *genName != "":
		c, err = udsim.ISCAS85(*genName)
	default:
		err = fmt.Errorf("need -bench FILE or -gen NAME")
	}
	if err != nil {
		fail(err)
	}
	if !c.Combinational() {
		fmt.Printf("sequential circuit: %d flip-flops broken for analysis\n", len(c.FFs))
		c, _ = c.BreakFlipFlops()
	}
	norm := c.Normalize()
	a, err := levelize.Analyze(norm)
	if err != nil {
		fail(err)
	}
	s := stats.Analyze(norm, a, *wordBits)

	fmt.Printf("circuit %s\n", norm)
	t := texttable.New("shape", "metric", "value")
	t.Add("gates", s.Gates)
	t.Add("nets", s.Nets)
	t.Add("primary inputs", s.Inputs)
	t.Add("primary outputs", s.Outputs)
	t.Add("levels (depth+1)", s.Levels)
	t.Add(fmt.Sprintf("words/field (W=%d)", *wordBits), s.WordsPerField)
	t.Add("max fanin", s.MaxFanin)
	t.Add("max fanout", s.MaxFanout)
	t.Add("PC elements total", s.PCTotal)
	t.Add("PC set max", s.PCMax)
	t.Add("PC set mean", fmt.Sprintf("%.2f", s.PCAvg))
	t.Add("PC-set gate sims", s.GateSims)
	fmt.Println(t)

	th := texttable.New("PC-set size histogram", "size", "nets")
	for _, kv := range stats.PCHistogram(a) {
		th.Add(kv[0], kv[1])
	}
	fmt.Println(th)

	pt := align.PathTrace(a)
	cb := align.CycleBreak(a)
	ta := texttable.New("shift elimination", "algorithm", "retained shifts", "max width (bits)", "total words")
	ta.Add("unoptimized", norm.NumGates(), a.Depth+1, align.Unoptimized(a).TotalWords(*wordBits))
	ta.Add("path-tracing", pt.RetainedShifts(), pt.MaxWidthBits(), pt.TotalWords(*wordBits))
	ta.Add("cycle-breaking", cb.RetainedShifts(), cb.MaxWidthBits(), cb.TotalWords(*wordBits))
	fmt.Println(ta)

	// Execution-backend census: every way a compiled program can be
	// driven, from the in-process dispatch loop to the supervised native
	// child. Static properties only — throughput is udbench's business.
	tb := texttable.New("execution backends", "backend", "-exec", "dispatch", "isolation", "fallback")
	tb.Add("threaded", "sequential", "in-process dispatch loop", "same address space", "-")
	tb.Add("activity-gated", "activity-gated", "per vector: sequential form, or active ranges level by level", "same address space", "guard: sequential replay")
	tb.Add("vector-batch", "vector-batch", "stream blocks on worker clones, each seeded by the vector before it", "same address space", "guard: sequential replay")
	tb.Add("native", "native", "compiled child over pipe protocol", "subprocess sandbox", "in-process engine (quarantine)")
	fmt.Println(tb)

	// SCOAP testability overview.
	sc, err := scoap.Analyze(norm)
	if err != nil {
		fail(err)
	}
	ts := texttable.New("SCOAP testability (hardest nets)", "net", "CC0", "CC1", "CO", "detect cost")
	for _, id := range sc.HardestNets(8) {
		cost := sc.Testability(id, false)
		if c1 := sc.Testability(id, true); c1 > cost {
			cost = c1
		}
		ts.Add(norm.Net(id).Name, fmtCost(sc.CC0[id]), fmtCost(sc.CC1[id]),
			fmtCost(sc.CO[id]), fmtCost(cost))
	}
	fmt.Println(ts)

	if *doResub {
		printResub(c)
	}

	// The two run columns count the sim program's maximal same-opcode
	// runs as emitted and in the sequential execution form: the dispatches
	// a run-at-a-time loop takes per vector (deterministic counts).
	tc := texttable.New("generated code (C statements)", "technique", "instructions", "statements",
		"sim runs (emitted)", "sim runs (scheduled)")
	// The verification table reports rule IDs dynamically: any rule that
	// fires — including the netlist-level rules above V012 — lands in the
	// "rules fired" column instead of being silently dropped.
	tv := texttable.New("static verification", "technique", "errors", "warnings", "rules fired",
		"dead instrs", "unused slots", "live-in slots", "passes", "word util")
	// Translation-validation census (rule V016): per technique, how many
	// emitted statements lifted back exactly vs needed the symbolic
	// prover.
	tg := texttable.New("translation validation (V016)",
		"technique", "statements", "exact", "semantic", "errors", "warnings")
	check := func(label string, spec *verify.Spec) {
		rep := verify.Check(spec, verify.Options{})
		tv.Add(label, rep.Count(verify.SevError), rep.Count(verify.SevWarning),
			rulesFired(rep),
			rep.Stats.DeadInstructions(), rep.Stats.UnusedSlots,
			rep.Stats.LiveInSlots, rep.Stats.LivenessPasses,
			fmt.Sprintf("%.1f%%", 100*rep.Stats.WordUtilization()))
		// The spec was verified just above; validate the emission alone.
		res, err := validate.CheckUnits("gensim",
			[]ir.Source{{Name: "initvec", Prog: spec.Init}, {Name: "simvec", Prog: spec.Sim}}, nil)
		if err != nil {
			fail(err)
		}
		tg.Add(label, res.Exact+res.Semantic, res.Exact, res.Semantic,
			res.Report.Count(verify.SevError), res.Report.Count(verify.SevWarning))
	}
	ps, err := pcset.Compile(norm, nil)
	if err != nil {
		fail(err)
	}
	pi, pm := ps.Programs()
	n1, _ := codegen.Emit(io.Discard, codegen.C, "x", []codegen.Unit{{Name: "i", Prog: pi}, {Name: "s", Prog: pm}})
	tc.Add("pcset", ps.CodeSize(), n1, program.OpRuns(pm.Code), ps.Sequential().Runs())
	if *doVerify {
		check("pcset", ps.Spec())
	}
	for _, cfg := range []struct {
		label string
		conf  parsim.Config
	}{
		{"parallel", parsim.Config{WordBits: *wordBits}},
		{"parallel+trim", parsim.Config{WordBits: *wordBits, Trim: true}},
		{"parallel+pt", parsim.Config{WordBits: *wordBits, Align: pt}},
		{"parallel+pt+trim", parsim.Config{WordBits: *wordBits, Trim: true, Align: pt}},
	} {
		par, err := parsim.Compile(norm, cfg.conf)
		if err != nil {
			fail(err)
		}
		qi, qm := par.Programs()
		n2, _ := codegen.Emit(io.Discard, codegen.C, "x", []codegen.Unit{{Name: "i", Prog: qi}, {Name: "s", Prog: qm}})
		tc.Add(cfg.label, par.CodeSize(), n2, program.OpRuns(qm.Code), par.Sequential().Runs())
		if *doVerify {
			check(cfg.label, par.Spec())
		}
	}
	fmt.Println(tc)
	if *doVerify {
		fmt.Println(tv)
		fmt.Println(tg)
		// Enumerate the full rule catalogue so rules above V012 — the
		// netlist-level resubstitution rules — are visible even when the
		// per-technique instruction-stream checks cannot fire them.
		tr := texttable.New(fmt.Sprintf("verification rules (%d documented)", len(verify.RuleDocs)),
			"rule", "title")
		for _, d := range verify.RuleDocs {
			tr.Add(d.ID, d.Title)
		}
		fmt.Println(tr)
	}
}

// rulesFired lists the distinct rule IDs of a report's findings.
func rulesFired(rep *verify.Report) string {
	seen := map[string]bool{}
	var ids []string
	for _, f := range rep.Findings {
		if !seen[f.Rule] {
			seen[f.Rule] = true
			ids = append(ids, f.Rule)
		}
	}
	if len(ids) == 0 {
		return "-"
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// printResub runs the resubstitution pass and reports the optimizer
// census plus the certificate audit (rules V013/V014).
func printResub(c *udsim.Circuit) {
	res, err := udsim.Resubstitute(c, udsim.ResubConfig{})
	if err != nil {
		fail(err)
	}
	cert := res.Cert
	t := texttable.New("resubstitution (proof-carrying)", "metric", "value")
	t.Add("gates before / after", fmt.Sprintf("%d / %d", cert.GatesBefore, cert.GatesAfter))
	t.Add("nets before / after", fmt.Sprintf("%d / %d", cert.NetsBefore, cert.NetsAfter))
	t.Add("merged nets", res.MergedCount())
	t.Add("proven constants", res.ConstCount())
	t.Add("stripped nets", res.StrippedCount())
	exh := 0
	for _, m := range cert.Merges {
		if m.Exhaustive {
			exh++
		}
	}
	for _, k := range cert.Constants {
		if k.Exhaustive {
			exh++
		}
	}
	t.Add("exhaustive proofs", fmt.Sprintf("%d of %d", exh, len(cert.Merges)+len(cert.Constants)))
	rep := udsim.VerifyRewrite(res)
	status := "clean"
	if !rep.Clean() {
		status = fmt.Sprintf("%d errors, %d warnings", rep.Count(verify.SevError), rep.Count(verify.SevWarning))
	}
	t.Add("certificate replay (V013/V014)", status)
	fmt.Println(t)
	if !rep.Clean() {
		fmt.Println(rep)
		fail(fmt.Errorf("resubstitution certificate replay failed"))
	}
}

func fmtCost(v int64) string {
	if v >= scoap.Infinity {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "udstats:", err)
	os.Exit(1)
}

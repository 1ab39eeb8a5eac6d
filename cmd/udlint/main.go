// Command udlint statically verifies the compiled simulation programs of
// a circuit: it compiles the netlist with every verifiable technique
// (PC-set and all parallel-technique variants), runs the verify analyzer
// over each instruction stream, and prints a findings table. The exit
// status is 0 when every technique is clean, 1 when any error-severity
// finding exists, and 2 when loading or compiling fails.
//
// Usage:
//
//	udlint -gen c432
//	udlint -bench mycircuit.bench -wordbits 8 -dead
//	udlint -gen c6288 -technique parallel-pt-trim
//	udlint -gen c880 -workers 1    # verify the gated plan's leveling (rule V012)
//	udlint -gen c499 -resub        # optimize first: V013/V014 certificate replay
//	udlint -gen c432 -codegen      # translation-validate the emitted source (V016)
//	udlint -gen c432 -format=json  # stable machine-readable report
//	udlint -gen c432 -format=sarif # SARIF 2.1.0 for CI annotators
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"udsim"
	"udsim/internal/cliflags"
	"udsim/internal/texttable"
	"udsim/internal/verify"
)

var lintTechniques = []string{
	"pcset", "parallel", "parallel-trim",
	"parallel-pt", "parallel-pt-trim",
	"parallel-cb", "parallel-cb-trim",
}

func main() {
	var (
		benchFile = flag.String("bench", "", "netlist file (.bench or structural .v)")
		genName   = flag.String("gen", "", "synthesize a benchmark profile (c432..c7552)")
		wordBits  = flag.Int("wordbits", 32, "parallel-technique word width")
		technique = flag.String("technique", "", "comma-separated technique subset (default: all verifiable)")
		dead      = flag.Bool("dead", false, "also report dead instructions as info findings")
		workers   = cliflags.Workers(flag.CommandLine, 0, "any value > 0 attaches the activity-gated plan to the gateable techniques (parallel, parallel-trim) so rule V012 checks its leveling; 0 lints the programs only")
		resub     = flag.Bool("resub", false, "run the simulation-guided resubstitution pass first: replay its certificate (rules V013, V014) and lint the optimized netlist")
		codegen   = flag.Bool("codegen", false, "translation-validate each technique's generated source: lift the Go emission back to an instruction stream and prove it equal to the compiled programs (rule V016)")
		format    = flag.String("format", "text", "output format: text, json or sarif")
	)
	flag.Parse()
	switch *format {
	case "text", "json", "sarif":
	default:
		fail(fmt.Errorf("unknown format %q (want text, json or sarif)", *format))
	}

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

	techs := lintTechniques
	if *technique != "" {
		techs = strings.Split(*technique, ",")
	}

	opts := udsim.VerifyOptions{ReportDead: *dead}
	var reports []*udsim.VerifyReport
	errors := 0
	if *resub {
		// Optimize first: the "resub" report replays the certificate
		// (V013 structural invariants, V014 proof replay + end-to-end
		// equivalence) and the per-technique reports below lint the
		// optimized netlist's compiled programs.
		res, err := udsim.Resubstitute(c, udsim.ResubConfig{})
		if err != nil {
			fail(err)
		}
		rep := udsim.VerifyRewrite(res)
		errors += rep.Count(verify.SevError)
		reports = append(reports, rep)
		c = res.Optimized
	}
	for _, tech := range techs {
		rep, err := lintOne(c, tech, *wordBits, *workers, *codegen, opts)
		if err != nil {
			fail(fmt.Errorf("%s: %w", tech, err))
		}
		errors += rep.Count(verify.SevError)
		reports = append(reports, rep)
	}

	switch *format {
	case "json":
		if err := verify.WriteJSON(os.Stdout, c.Name, reports); err != nil {
			fail(err)
		}
	case "sarif":
		if err := verify.WriteSARIF(os.Stdout, c.Name, reports); err != nil {
			fail(err)
		}
	default:
		printText(c.Name, reports)
	}

	if errors > 0 {
		os.Exit(1)
	}
}

// printText renders the human-readable summary and findings tables.
func printText(circuit string, reports []*udsim.VerifyReport) {
	summary := texttable.New(fmt.Sprintf("static verification: %s", circuit),
		"technique", "init", "sim", "errors", "warnings", "dead", "unused slots", "word util")
	var all []taggedFinding
	for _, rep := range reports {
		st := &rep.Stats
		summary.Add(rep.Name, st.InitInstrs, st.SimInstrs,
			rep.Count(verify.SevError), rep.Count(verify.SevWarning),
			st.DeadInstructions(), st.UnusedSlots,
			fmt.Sprintf("%.1f%%", 100*st.WordUtilization()))
		for _, f := range rep.Findings {
			all = append(all, taggedFinding{rep.Name, f})
		}
	}
	fmt.Println(summary)

	if len(all) > 0 {
		ft := texttable.New("findings", "technique", "rule", "severity", "location", "slot", "message")
		for _, tf := range all {
			loc := tf.f.Prog
			if tf.f.Instr >= 0 {
				loc = fmt.Sprintf("%s[%d]", tf.f.Prog, tf.f.Instr)
			}
			slot := ""
			if tf.f.Slot >= 0 {
				slot = fmt.Sprint(tf.f.Slot)
			}
			ft.Add(tf.tech, tf.f.Rule, tf.f.Severity.String(), loc, slot, tf.f.Msg)
		}
		fmt.Println(ft)
	} else {
		fmt.Println("no findings")
	}
}

type taggedFinding struct {
	tech string
	f    udsim.VerifyFinding
}

// lintOne compiles the circuit with one technique at the requested word
// width and runs the analyzer. With workers > 0 a gateable technique
// (the flat and trimmed parallel layouts) is built activity-gated, so
// the analyzer also checks its leveled plan under rule V012. With
// codegen set, the technique's generated source is translation-validated
// and any V016 finding is merged into the report.
func lintOne(c *udsim.Circuit, tech string, wordBits, workers int, codegen bool, opts udsim.VerifyOptions) (*udsim.VerifyReport, error) {
	var (
		e   udsim.Engine
		err error
		po  []udsim.Option
	)
	if workers > 0 && (tech == "parallel" || tech == "parallel-trim") {
		po = append(po, udsim.WithExec(udsim.ExecActivityGated, workers))
	}
	if tech == "pcset" {
		e, err = udsim.Open(c, udsim.TechPCSet, po...)
	} else {
		po = append(po, udsim.WithWordBits(wordBits))
		switch tech {
		case "parallel":
		case "parallel-trim":
			po = append(po, udsim.WithTrimming())
		case "parallel-pt":
			po = append(po, udsim.WithShiftElimination(udsim.PathTracing))
		case "parallel-pt-trim":
			po = append(po, udsim.WithShiftElimination(udsim.PathTracing), udsim.WithTrimming())
		case "parallel-cb":
			po = append(po, udsim.WithShiftElimination(udsim.CycleBreaking))
		case "parallel-cb-trim":
			po = append(po, udsim.WithShiftElimination(udsim.CycleBreaking), udsim.WithTrimming())
		default:
			return nil, fmt.Errorf("unknown technique (want one of %s)", strings.Join(lintTechniques, ", "))
		}
		e, err = udsim.Open(c, udsim.TechParallel, po...)
	}
	if err != nil {
		return nil, err
	}
	if closer, ok := e.(interface{ Close() }); ok {
		defer closer.Close()
	}
	rep, err := udsim.Verify(e, opts)
	if err != nil || !codegen {
		return rep, err
	}
	crep, err := udsim.ValidateCodegen(e)
	if err != nil {
		return nil, err
	}
	// ValidateCodegen re-runs the analyzer first; rep holds its findings.
	for _, f := range crep.Findings {
		if f.Rule == verify.RuleLift {
			rep.Add(f)
		}
	}
	rep.Sort()
	return rep, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "udlint:", err)
	os.Exit(2)
}

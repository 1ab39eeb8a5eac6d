// Command udbench regenerates the paper's evaluation tables (Figs. 19–24
// plus the zero-delay, code-size and data-parallel side studies) on the
// synthesized ISCAS-85 benchmark profiles.
//
// Usage:
//
//	udbench                      # every experiment at the paper's scale
//	udbench -exp fig19,fig21     # selected experiments
//	udbench -vectors 500         # faster run
//	udbench -circuits c432,c6288 # selected circuits
//	udbench -json BENCH_r2.json -rev r2   # machine-readable perf matrix
//	udbench -profile -circuits c880   # per-level heat profile
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"udsim"
	"udsim/internal/cliflags"
	"udsim/internal/harness"
	"udsim/internal/obs"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiments (fig19..fig24, zerodelay, parallel, codesize, dataparallel, faultcov, activity, timing, deadstore, resub, chaos, gating, native, serve) or all")
		circuits = flag.String("circuits", "", "comma-separated circuit subset (default all ten)")
		nvec     = flag.Int("vectors", 5000, "vectors per circuit (the paper used 5000)")
		seed     = flag.Int64("seed", 1990, "vector seed")
		wordBits = flag.Int("wordbits", 32, "parallel-technique word width (8,16,32,64)")
		repeats  = flag.Int("repeats", 3, "timing repetitions; fastest run reported")
		jsonOut  = flag.String("json", "", "write the circuit x technique x strategy x workers bench matrix to FILE as JSON; combine with -exp gating for the toggle-rate gating matrix")
		rev      = flag.String("rev", "dev", "revision label recorded in the -json bench file")
		workers  = cliflags.WorkersList(flag.CommandLine, "the -json matrix sweeps all values")
		profile  = flag.Bool("profile", false, "print each circuit's per-level heat profile from an observed activity-gated run of a 1%-toggle stream (skips -exp)")
	)
	flag.Parse()

	opt := harness.Options{Vectors: *nvec, Seed: *seed, WordBits: *wordBits, Repeats: *repeats}
	if *circuits != "" {
		opt.Circuits = strings.Split(*circuits, ",")
	}
	workersList, err := cliflags.ParseWorkersList(*workers)
	if err != nil {
		fail(err)
	}

	if *profile {
		names := opt.Circuits
		if len(names) == 0 {
			names = udsim.ISCAS85Names()
		}
		for _, name := range names {
			r, err := harness.ObsProfile(opt, strings.TrimSpace(name))
			if err != nil {
				fail(err)
			}
			// The text exposition is the machine-readable contract;
			// refuse to print a profile whose export does not validate.
			var buf bytes.Buffer
			if err := r.WriteText(&buf); err != nil {
				fail(err)
			}
			if err := obs.ValidateText(bytes.NewReader(buf.Bytes())); err != nil {
				fail(fmt.Errorf("%s: malformed observability export: %w", name, err))
			}
			fmt.Println(r)
		}
		return
	}

	if *jsonOut != "" {
		// -json emits the plain bench matrix; `-json FILE -exp gating`
		// emits the toggle-rate gating matrix in the same schema.
		var (
			file *harness.BenchFile
			err  error
		)
		if *exps == "gating" {
			file, err = harness.GatingMatrix(opt, *rev)
		} else if *exps == "serve" {
			file, err = harness.ServeMatrix(opt, *rev, workersList)
		} else {
			file, err = harness.BenchMatrix(opt, *rev, workersList)
		}
		if err != nil {
			fail(err)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fail(err)
		}
		if err := file.WriteJSON(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		// Round-trip the emitted file so CI smoke runs validate the format.
		rf, err := os.Open(*jsonOut)
		if err != nil {
			fail(err)
		}
		defer rf.Close()
		if _, err := harness.ParseBenchFile(rf); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d records)\n", *jsonOut, len(file.Records))
		return
	}

	if *exps == "all" {
		if err := harness.All(opt, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	for _, name := range strings.Split(*exps, ",") {
		r, err := harness.Run(strings.TrimSpace(name), opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "udbench:", err)
	os.Exit(1)
}

// Command udsim simulates a gate-level circuit under the unit-delay model
// with a selectable engine.
//
// Usage:
//
//	udsim -bench adder.bench -engine parallel -vectors 10 -trace s0,s1
//	udsim -gen c432 -engine pcset -vectors 100
//
// For every vector the settled primary-output values are printed; -trace
// additionally prints the complete unit-delay waveform of the named nets.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"udsim"
	"udsim/internal/cliflags"
	"udsim/internal/vectors"
	"udsim/internal/wave"
)

func main() {
	var (
		benchFile = flag.String("bench", "", "netlist to simulate (.bench or structural .v)")
		genName   = flag.String("gen", "", "synthesize a benchmark profile instead (c432..c7552)")
		engine    = flag.String("engine", "parallel", "engine: "+strings.Join(udsim.Techniques(), ", "))
		nvec      = flag.Int("vectors", 10, "number of random vectors")
		seed      = flag.Int64("seed", 1990, "random vector seed")
		vecFile   = flag.String("vecfile", "", "read vectors from file (one 0/1 line per vector) instead")
		trace     = flag.String("trace", "", "comma-separated nets whose full waveforms to print")
		vcdFile   = flag.String("vcd", "", "write waveforms of the primary I/O to a VCD file")
		quiet     = flag.Bool("quiet", false, "suppress per-vector output (timing runs)")
		execFlag  = cliflags.Exec(flag.CommandLine)
		workers   = cliflags.Workers(flag.CommandLine, 0)
		obsFlag   = flag.Bool("obs", false, "attach a runtime observer and print its text export after the run (compiled engines)")
		guard     = cliflags.Guard(flag.CommandLine)
		deadline  = cliflags.Deadline(flag.CommandLine, 0, "requires -guard")
	)
	flag.Parse()

	c, err := loadCircuit(*benchFile, *genName)
	if err != nil {
		fail(err)
	}
	if !c.Combinational() {
		comb, _ := c.BreakFlipFlops()
		fmt.Fprintf(os.Stderr, "note: %d flip-flops broken into primary I/O (see udsim.Sequential for cycle mode)\n", len(c.FFs))
		c = comb
	}
	tech, topts, err := udsim.ParseTechnique(*engine)
	if err != nil {
		fail(err)
	}
	if *execFlag != "" {
		strategy, err := udsim.ParseExecStrategy(*execFlag)
		if err != nil {
			fail(err)
		}
		topts = append(topts, udsim.WithExec(strategy, *workers))
	}
	var ob *udsim.Observer
	if *obsFlag {
		ob = udsim.NewObserver(udsim.ObserverConfig{Activity: true})
		topts = append(topts, udsim.WithObserver(ob))
	}
	if *deadline > 0 && !*guard {
		fail(fmt.Errorf("-deadline requires -guard"))
	}
	if *guard {
		topts = append(topts, udsim.WithGuard(udsim.DefaultGuardPolicy()))
	}
	e, err := udsim.Open(c, tech, topts...)
	if err != nil {
		fail(err)
	}
	if cl, ok := e.(udsim.Closer); ok {
		defer cl.Close()
	}
	if err := e.ResetConsistent(nil); err != nil {
		fail(err)
	}

	var vecs *vectors.Set
	if *vecFile != "" {
		f, err := os.Open(*vecFile)
		if err != nil {
			fail(err)
		}
		vecs, err = vectors.Read(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if vecs.Width != len(e.Circuit().Inputs) {
			fail(fmt.Errorf("vector width %d, circuit has %d inputs", vecs.Width, len(e.Circuit().Inputs)))
		}
	} else {
		vecs = vectors.Random(*nvec, len(e.Circuit().Inputs), *seed)
	}

	var traced []udsim.NetID
	if *trace != "" {
		for _, name := range strings.Split(*trace, ",") {
			id, ok := e.Circuit().NetByName(strings.TrimSpace(name))
			if !ok {
				fail(fmt.Errorf("no net named %q", name))
			}
			traced = append(traced, id)
		}
	}
	tracer, canTrace := e.(udsim.Tracer)
	if len(traced) > 0 && !canTrace {
		fail(fmt.Errorf("engine %s does not retain waveforms", e.EngineName()))
	}
	var vcdW *udsim.VCDWriter
	if *vcdFile != "" {
		f, err := os.Create(*vcdFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		vcdW, err = udsim.NewVCD(f, e, nil)
		if err != nil {
			fail(err)
		}
		defer vcdW.Close()
	}

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	// applyOne simulates one vector, through the guarded supervisor when
	// -guard is set (a one-vector checkpointed batch honoring -deadline).
	applyOne := func(vec []bool) error {
		if g, ok := e.(*udsim.GuardedSim); ok {
			return g.ApplyStreamCtx(ctx, [][]bool{vec})
		}
		return e.Apply(vec)
	}

	fmt.Printf("# %s, engine=%s, depth=%d, %d vectors\n",
		e.Circuit(), e.EngineName(), e.Depth(), vecs.Len())
	if *quiet && vcdW == nil {
		// Timing mode: drive the whole stream through the Streamer
		// interface so a -exec strategy actually streams.
		if g, ok := e.(*udsim.GuardedSim); ok {
			if err := g.ApplyStreamCtx(ctx, vecs.Bits); err != nil {
				failGuarded(err)
			}
		} else if st, ok := e.(udsim.Streamer); ok {
			if err := st.ApplyStream(vecs.Bits); err != nil {
				fail(err)
			}
		} else {
			for _, vec := range vecs.Bits {
				if err := e.Apply(vec); err != nil {
					fail(err)
				}
			}
		}
		reportGuard(e)
		dumpObs(ob)
		return
	}
	for v, vec := range vecs.Bits {
		if err := applyOne(vec); err != nil {
			failGuarded(err)
		}
		if vcdW != nil {
			if err := vcdW.DumpVector(); err != nil {
				fail(err)
			}
		}
		if *quiet {
			continue
		}
		var out strings.Builder
		for _, o := range e.Circuit().Outputs {
			if e.Final(o) {
				out.WriteByte('1')
			} else {
				out.WriteByte('0')
			}
		}
		fmt.Printf("vector %4d: in=%s out=%s\n", v, bitString(vec), out.String())
		if len(traced) > 0 {
			lanes := make([]wave.Lane, 0, len(traced))
			for _, id := range traced {
				l := wave.Lane{
					Name: e.Circuit().Net(id).Name,
					Bits: make([]bool, e.Depth()+1),
					Know: make([]bool, e.Depth()+1),
				}
				for t := 0; t <= e.Depth(); t++ {
					l.Bits[t], l.Know[t] = tracer.ValueAt(id, t)
				}
				lanes = append(lanes, l)
			}
			if err := wave.Render(os.Stdout, lanes, wave.Unicode); err != nil {
				fail(err)
			}
		}
	}
	reportGuard(e)
	dumpObs(ob)
}

// reportGuard notes on stderr when a supervisor degraded the run — the
// simulation completed, but on a fallback path: sequential replay for
// the guarded engine, the in-process engine for the native backend.
func reportGuard(e udsim.Engine) {
	switch g := e.(type) {
	case *udsim.GuardedSim:
		if g.Degraded() {
			fmt.Fprintf(os.Stderr, "note: guarded engine degraded to sequential execution after: %v\n", g.LastFault())
		}
	case *udsim.NativeSim:
		if g.Degraded() {
			fmt.Fprintf(os.Stderr, "note: native child quarantined, fell back to in-process execution after: %v\n", g.LastFault())
		}
	}
}

// failGuarded renders a typed engine fault with its witness coordinates
// before exiting; other errors fall through to fail.
func failGuarded(err error) {
	if f, ok := udsim.AsEngineFault(err); ok {
		fmt.Fprintf(os.Stderr, "udsim: engine fault (%v): %v\n", f.Kind, f)
		os.Exit(1)
	}
	fail(err)
}

// dumpObs prints the observer's text exposition, if one is attached.
func dumpObs(ob *udsim.Observer) {
	if ob == nil {
		return
	}
	if err := ob.Snapshot().WriteText(os.Stdout); err != nil {
		fail(err)
	}
}

func loadCircuit(benchFile, genName string) (*udsim.Circuit, error) {
	switch {
	case benchFile != "" && genName != "":
		return nil, fmt.Errorf("use either -bench or -gen, not both")
	case benchFile != "":
		return udsim.LoadCircuitFile(benchFile)
	case genName != "":
		return udsim.ISCAS85(genName)
	default:
		return nil, fmt.Errorf("need -bench FILE or -gen NAME")
	}
}

func bitString(vec []bool) string {
	var b strings.Builder
	for _, v := range vec {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "udsim:", err)
	os.Exit(1)
}

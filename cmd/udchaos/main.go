// Command udchaos runs a chaos drill against a guarded compiled engine:
// it injects one deterministic fault into a guarded vector stream and
// verifies the resilience guarantees hold — the fault surfaces as a
// typed EngineFault (never a crash or hang), the supervisor degrades
// gracefully where the policy allows, and the settled outputs stay
// bit-identical to an unfaulted sequential run. The guard counters are
// printed as the same Prometheus-style export a production scraper
// would read.
//
// The parallel engine is drilled under activity gating, and the drilled
// vector repeats the one before it, so the gated engine runs it on its
// level loop: the only path with per-level injection points and a level
// budget. The PC-set engine has no gating and runs sequentially, with
// one injection point before each run, so its drills are panic and
// cancel only.
//
// Usage:
//
//	udchaos -gen c880 -fault panic
//	udchaos -gen c432 -fault delay -sleep 200ms -budget 25ms
//	udchaos -gen c1908 -fault corrupt
//	udchaos -bench alu.bench -engine pcset -fault cancel -run 5
//
// With -native the drill targets the supervised native-code backend
// instead: the injected failure hits the codegen subprocess (or its
// protocol stream) and the drill verifies the supervisor's respawn or
// quarantine-and-fallback contract plus bit-identical outputs.
//
//	udchaos -gen c432 -native -fault kill      # SIGKILL mid-batch → respawn
//	udchaos -gen c432 -native -fault crash     # child exits per batch → quarantine
//	udchaos -gen c432 -native -fault wedge     # child stalls → deadline → quarantine
//	udchaos -gen c432 -native -fault truncate  # mid-frame EOF → protocol fault
//	udchaos -gen c432 -native -fault corrupt   # CRC-corrupted batch → quarantine
//	udchaos -gen c432 -native -fault flood     # stderr flood + exit → quarantine
//
// Exit status 0 means every guarantee held; 1 means a guarantee was
// violated (and the drill says which); 2 is a usage or setup error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"udsim"
	"udsim/internal/native"
	"udsim/internal/resilience/chaos"
	"udsim/internal/vectors"
)

func main() {
	var (
		benchFile = flag.String("bench", "", "netlist to drill (.bench or structural .v)")
		genName   = flag.String("gen", "", "synthesize a benchmark profile instead (c432..c7552)")
		engine    = flag.String("engine", "parallel", "compiled engine under drill: parallel or pcset")
		nvec      = flag.Int("vectors", 64, "vectors in the drilled stream")
		seed      = flag.Int64("seed", 1990, "random vector seed")
		fault     = flag.String("fault", "panic", "injection: panic, corrupt, delay, cancel (pcset: panic, cancel)")
		run       = flag.Int("run", 3, "1-based vector run the injection arms on (corrupt and delay: at least 2)")
		level     = flag.Int("level", -1, "level coordinate (-1 = auto: 0, or the last level for corrupt)")
		netName   = flag.String("net", "", "output net a corrupt drill flips (default: first primary output)")
		sleep     = flag.Duration("sleep", 150*time.Millisecond, "stall duration for -fault delay")
		budget    = flag.Duration("budget", 25*time.Millisecond, "per-level stall budget")
		retries   = flag.Int("retries", 2, "sequential-replay retries for transient faults")
		nativeDr  = flag.Bool("native", false, "drill the supervised native-code backend instead (faults: kill, crash, wedge, truncate, corrupt, flood)")
	)
	flag.Parse()

	c, err := loadCircuit(*benchFile, *genName)
	if err != nil {
		usageFail(err)
	}
	if !c.Combinational() {
		c, _ = c.BreakFlipFlops()
		fmt.Fprintln(os.Stderr, "note: flip-flops broken; the drill targets the combinational core")
	}
	var tech udsim.Technique
	switch strings.ToLower(*engine) {
	case "parallel":
		tech = udsim.TechParallel
	case "pcset":
		tech = udsim.TechPCSet
	default:
		usageFail(fmt.Errorf("engine %q is not guardable; use parallel or pcset", *engine))
	}
	if *run < 1 || *run > *nvec {
		usageFail(fmt.Errorf("-run %d outside the %d-vector stream", *run, *nvec))
	}
	leveled := strings.ToLower(*fault) == "corrupt" || strings.ToLower(*fault) == "delay"
	if !*nativeDr && leveled && tech == udsim.TechPCSet {
		usageFail(fmt.Errorf("-fault %s needs a level loop; the pcset engine runs sequentially (use panic or cancel)", *fault))
	}
	if !*nativeDr && leveled && *run < 2 {
		usageFail(fmt.Errorf("-fault %s needs -run of at least 2: the first vector after a reset runs no level loop", *fault))
	}

	if *nativeDr {
		nativeDrill(c, tech, *fault, *nvec, *seed, *budget, *retries)
		return
	}

	pol := udsim.DefaultGuardPolicy()
	pol.LevelBudget = *budget
	pol.MaxRetries = *retries
	pol.CrossCheckEvery = 1 // a drill wants corruption caught on the spot

	open := func(inj udsim.FaultInjector, ob *udsim.Observer) *udsim.GuardedSim {
		opts := []udsim.Option{udsim.WithGuard(pol)}
		if tech == udsim.TechParallel {
			opts = append(opts, udsim.WithExec(udsim.ExecActivityGated, 1))
		}
		if inj != nil {
			opts = append(opts, udsim.WithFaultInjection(inj))
		}
		if ob != nil {
			opts = append(opts, udsim.WithObserver(ob))
		}
		e, err := udsim.Open(c, tech, opts...)
		if err != nil {
			usageFail(err)
		}
		g := e.(*udsim.GuardedSim)
		if err := g.ResetConsistent(nil); err != nil {
			usageFail(err)
		}
		return g
	}

	// Build the injector; a corrupt drill probes an uninjected engine
	// first for the output bit's (slot, mask) and the schedule's last
	// level, so the flip stays visible to the cross-check.
	var (
		inj    *chaos.Injector
		ctx    = context.Background()
		cancel context.CancelFunc
	)
	lvl := *level
	switch strings.ToLower(*fault) {
	case "panic":
		if lvl < 0 {
			lvl = 0
		}
		inj = chaos.PanicAt(*run, lvl)
	case "delay":
		if lvl < 0 {
			lvl = 0
		}
		inj = chaos.Delay(*run, lvl, *sleep)
	case "corrupt":
		probe := open(nil, nil)
		target := probe.Circuit().Outputs[0]
		if *netName != "" {
			id, ok := probe.Circuit().NetByName(*netName)
			if !ok {
				usageFail(fmt.Errorf("no net named %q", *netName))
			}
			target = id
		}
		slot, mask, last := probe.FaultTarget(target)
		probe.Close()
		if lvl < 0 {
			lvl = last
		}
		fmt.Printf("corrupt target: net %s → state word %d mask %#x, injected at level %d\n",
			probe.Circuit().Net(target).Name, slot, mask, lvl)
		inj = chaos.CorruptBits(*run, lvl, slot, mask)
	case "cancel":
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		inj = chaos.CancelAfter(cancel, *run)
	default:
		usageFail(fmt.Errorf("unknown -fault %q (panic, corrupt, delay, cancel)", *fault))
	}

	vecs := vectors.Random(*nvec, len(c.Inputs), *seed).Bits
	if tech == udsim.TechParallel && *run >= 2 {
		// A repeated vector changes no input, so the gated engine runs it
		// on its level loop.
		vecs[*run-1] = append([]bool(nil), vecs[*run-2]...)
	}
	ob := udsim.NewObserver(udsim.ObserverConfig{})
	g := open(inj, ob)
	defer g.Close()

	fmt.Printf("# drill: %s on %s/%s, %d vectors, run %d level %d\n",
		*fault, c.Name, g.EngineName(), *nvec, *run, lvl)
	streamErr := g.ApplyStreamCtx(ctx, vecs)

	ok := true
	check := func(cond bool, what string) {
		verdict := "ok"
		if !cond {
			verdict, ok = "VIOLATED", false
		}
		fmt.Printf("  %-52s %s\n", what, verdict)
	}

	if strings.ToLower(*fault) == "cancel" {
		f, typed := udsim.AsEngineFault(streamErr)
		check(typed && f.Kind == udsim.FaultCanceled, "cancellation surfaced as a typed FaultCanceled")
		check(!g.Degraded(), "cancellation did not quarantine the schedule")
		// The batch rolled back to its checkpoint; replaying the whole
		// stream must now match the reference exactly.
		streamErr = g.ApplyStream(vecs)
	}
	check(streamErr == nil, "stream completed without surfacing the fault")
	if strings.ToLower(*fault) != "cancel" {
		check(inj.Fired(), "injector fired at its coordinate")
		f := g.LastFault()
		check(f != nil, "supervisor recorded a typed EngineFault")
		if f != nil {
			fmt.Printf("  fault: %v\n", f)
		}
		check(g.Degraded() && g.ExecStrategy() == udsim.ExecSequential,
			"schedule quarantined, engine degraded to sequential")
	}
	check(finalsMatch(g, c, tech, vecs), "settled outputs bit-identical to sequential reference")

	fmt.Println()
	if err := ob.Snapshot().WriteText(os.Stdout); err != nil {
		usageFail(err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "udchaos: resilience guarantee VIOLATED")
		os.Exit(1)
	}
	fmt.Println("drill passed: every guarantee held")
}

// nativeDrill injects one deterministic failure into the supervised
// native-code backend and verifies the contract: the failure is
// recorded as a typed EngineFault of the right kind, the supervisor
// either respawns (kill) or quarantines and falls back in process
// (everything else), the stream never hangs or errors, and the settled
// outputs stay bit-identical to the in-process reference.
func nativeDrill(c *udsim.Circuit, tech udsim.Technique, fault string, nvec int, seed int64, budget time.Duration, retries int) {
	pol := udsim.DefaultGuardPolicy()
	pol.LevelBudget = budget
	pol.MaxRetries = retries

	var (
		opts     []udsim.Option
		wantKind udsim.FaultKind
		respawns bool // the drill expects recovery by respawn, not quarantine
		kill     *native.KillAtBatch
	)
	switch strings.ToLower(fault) {
	case "kill":
		kill = &native.KillAtBatch{Batch: 2}
		opts = append(opts, udsim.WithNativeDisruptor(kill))
		wantKind, respawns = udsim.FaultSubprocess, true
	case "crash":
		opts = append(opts, udsim.WithNativeChaos(udsim.NativeChildChaos{CrashAtBatch: 1}))
		wantKind = udsim.FaultSubprocess
	case "wedge":
		opts = append(opts, udsim.WithNativeChaos(udsim.NativeChildChaos{WedgeAtBatch: 1}))
		wantKind = udsim.FaultDeadline
	case "truncate":
		opts = append(opts, udsim.WithNativeChaos(udsim.NativeChildChaos{TruncateAtBatch: 1}))
		wantKind = udsim.FaultProtocol
	case "corrupt":
		opts = append(opts, udsim.WithNativeDisruptor(&native.CorruptBatch{Batch: 1}))
		wantKind = udsim.FaultSubprocess // the child rejects the CRC and exits
	case "flood":
		opts = append(opts, udsim.WithNativeChaos(udsim.NativeChildChaos{FloodStderrAtBatch: 1}))
		wantKind = udsim.FaultSubprocess
	default:
		usageFail(fmt.Errorf("unknown -native -fault %q (kill, crash, wedge, truncate, corrupt, flood)", fault))
	}
	opts = append(opts, udsim.WithNativePolicy(pol))
	ob := udsim.NewObserver(udsim.ObserverConfig{})
	opts = append(opts, udsim.WithObserver(ob))

	e, err := udsim.Open(c, tech, opts...)
	if err != nil {
		usageFail(err)
	}
	g := e.(*udsim.NativeSim)
	defer g.Close()
	if err := g.ResetConsistent(nil); err != nil {
		usageFail(err)
	}

	fmt.Printf("# native drill: %s on %s/%s, %d vectors, batch budget %v, %d respawns\n",
		fault, c.Name, g.EngineName(), nvec, budget, retries)

	// Drive the stream in four batches so a mid-stream failure leaves
	// batches on both sides of it.
	vecs := vectors.Random(nvec, len(c.Inputs), seed).Bits
	var streamErr error
	per := (len(vecs) + 3) / 4
	for i := 0; i < len(vecs) && streamErr == nil; i += per {
		end := i + per
		if end > len(vecs) {
			end = len(vecs)
		}
		streamErr = g.ApplyStream(vecs[i:end])
	}

	ok := true
	check := func(cond bool, what string) {
		verdict := "ok"
		if !cond {
			verdict, ok = "VIOLATED", false
		}
		fmt.Printf("  %-52s %s\n", what, verdict)
	}

	check(streamErr == nil, "stream completed without surfacing the fault")
	f := g.LastFault()
	check(f != nil, "supervisor recorded a typed EngineFault")
	if f != nil {
		fmt.Printf("  fault: %v\n", f)
		check(f.Kind == wantKind, fmt.Sprintf("fault kind is %v", wantKind))
	}
	if respawns {
		check(!g.Degraded(), "child respawned; native path still serving")
		check(kill.Kills == 1, "disruptor delivered exactly one SIGKILL")
		check(g.SupervisorState() == "serving", "supervisor back in the serving state")
	} else {
		check(g.Degraded(), "respawn budget exhausted; quarantined to in-process fallback")
		check(g.SupervisorState() == "quarantined", "supervisor parked in the quarantined state")
	}
	check(finalsMatch(g, c, tech, vecs), "settled outputs bit-identical to in-process reference")

	fmt.Println()
	if err := ob.Snapshot().WriteText(os.Stdout); err != nil {
		usageFail(err)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "udchaos: resilience guarantee VIOLATED")
		os.Exit(1)
	}
	fmt.Println("drill passed: every guarantee held")
}

// finalsMatch replays vecs on an unguarded sequential engine of the same
// technique and compares every net's settled value.
func finalsMatch(g udsim.Engine, c *udsim.Circuit, tech udsim.Technique, vecs [][]bool) bool {
	ref, err := udsim.Open(c, tech)
	if err != nil {
		usageFail(err)
	}
	if err := ref.ResetConsistent(nil); err != nil {
		usageFail(err)
	}
	if err := ref.(udsim.Streamer).ApplyStream(vecs); err != nil {
		usageFail(err)
	}
	for i := range g.Circuit().Nets {
		if g.Final(udsim.NetID(i)) != ref.Final(udsim.NetID(i)) {
			return false
		}
	}
	return true
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

func usageFail(err error) {
	fmt.Fprintln(os.Stderr, "udchaos:", err)
	os.Exit(2)
}

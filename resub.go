package udsim

import (
	"fmt"
	"math/rand"

	"udsim/internal/circuit"
	"udsim/internal/resub"
	"udsim/internal/verify"
)

// Resubstitution types, re-exported from the internal optimizer.
type (
	// ResubResult is the outcome of one resubstitution run: the
	// normalized original circuit, the rewritten circuit, the
	// proof-carrying certificate and the per-net fates.
	ResubResult = resub.Result
	// ResubCertificate is the machine-checkable record of the applied
	// rewrites (see VerifyRewrite and verify rules V013/V014).
	ResubCertificate = resub.Certificate
	// ResubConfig parameterizes Resubstitute (zero value = defaults).
	ResubConfig = resub.Config
)

// WithResubstitution runs the simulation-guided resubstitution pass over
// the netlist before compilation: random-simulation signatures nominate
// functionally equivalent and constant nets, every candidate is proven
// with the equivalence checker, duplicates are merged, constants
// propagated and dead fan-out cones stripped, and the engine is compiled
// from the rewritten netlist.
//
// The engine still speaks the original circuit's net IDs: Circuit()
// returns the original (normalized) netlist, and Final / ValueAt /
// History resolve a merged net to its surviving representative
// (complemented merges are un-inverted on the way out), a constant net
// to its proven value, and a stripped net to unobservable (ok=false;
// Final reads false). Settled values are bit-identical to the
// unoptimized engine — Open enforces the V013 structural rule on the
// rewrite, implies WithVerify (V001–V012) on the compiled result, and
// cross-checks sampled vectors against an unoptimized twin at
// construction — but unit-delay waveform *timing* inside a merged cone
// follows the representative. Compiled techniques only.
func WithResubstitution() Option { return func(o *options) { o.resub = true } }

// Resubstitute runs the resubstitution pass standalone and returns the
// full result (rewritten circuit, certificate, fates). Engines built on
// Result.Optimized directly use the optimized circuit's own net IDs; use
// WithResubstitution to keep the original IDs.
func Resubstitute(c *Circuit, cfg ResubConfig) (*ResubResult, error) { return resub.Run(c, cfg) }

// VerifyRewrite audits a resubstitution result end to end: rule V013
// re-validates the rewritten netlist's structural invariants and rule
// V014 replays every certificate proof and re-checks original-vs-
// optimized equivalence. The report renders through the same JSON/SARIF
// drivers as the instruction-stream rules.
func VerifyRewrite(res *ResubResult) *VerifyReport { return verify.CheckRewrite(res) }

// ResubResultOf returns the resubstitution result an engine was built
// with (Open with WithResubstitution), unwrapping guarded engines, or
// nil for engines built without the pass.
func ResubResultOf(e Engine) *ResubResult {
	if ce, ok := e.(compiledEngine); ok {
		return ce.unwrap().Resub()
	}
	return nil
}

// resubState is a compiled engine's view of a resubstitution result:
// per-original-net translation tables from the original (normalized)
// circuit's IDs to the optimized circuit's IDs, so every external probe
// keeps working against the netlist the caller handed to Open.
type resubState struct {
	res  *resub.Result
	opt  []NetID // original ID -> optimized ID carrying its value (NoNet for const/stripped)
	inv  []bool  // complemented merge: read back inverted
	isC  []bool  // proven constant
	cval []bool  // the constant value
	ok   []bool  // false for stripped (unobservable) nets
}

// buildResub runs the pass and prepares the translation tables. The
// rewrite must pass the structural rule V013 before any engine is built
// on it; the full certificate replay (V014) is deliberately not run here
// — it re-proves every merge and belongs in udlint and the test suite.
func buildResub(c *Circuit) (*resubState, error) {
	res, err := resub.Run(c, resub.Config{})
	if err != nil {
		return nil, err
	}
	if rep := verify.CheckRewriteStructure(res); !rep.Clean() {
		return nil, fmt.Errorf("udsim: resubstitution rewrite rejected by rule V013:\n%s", rep)
	}
	n := res.Original.NumNets()
	st := &resubState{
		res:  res,
		opt:  make([]NetID, n),
		inv:  make([]bool, n),
		isC:  make([]bool, n),
		cval: make([]bool, n),
		ok:   make([]bool, n),
	}
	for i := 0; i < n; i++ {
		id := NetID(i)
		target, invert, isConst, cv, ok := res.Resolve(id)
		st.opt[i], st.inv[i], st.isC[i], st.cval[i], st.ok[i] = circuit.NoNet, invert, isConst, cv, ok
		if !ok || isConst {
			continue
		}
		tid, found := res.Optimized.NetByName(res.Original.Net(target).Name)
		if !found {
			// V013 guarantees every mapped target exists; defensive only.
			return nil, fmt.Errorf("udsim: resubstitution target %q missing from optimized circuit",
				res.Original.Net(target).Name)
		}
		st.opt[i] = tid
	}
	return st, nil
}

// final translates a settled-value read through the remap.
func (st *resubState) final(read func(NetID) bool, n NetID) bool {
	if int(n) >= len(st.ok) {
		return false
	}
	switch {
	case st.isC[n]:
		return st.cval[n]
	case !st.ok[n]:
		return false
	}
	return read(st.opt[n]) != st.inv[n]
}

// valueAt translates a waveform read through the remap. Constant nets
// are observable at every in-range time; stripped nets never are.
func (st *resubState) valueAt(read func(NetID, int) (bool, bool), depth int, n NetID, t int) (bool, bool) {
	if int(n) >= len(st.ok) || !st.ok[n] {
		return false, false
	}
	if st.isC[n] {
		return st.cval[n], t >= 0 && t <= depth
	}
	v, ok := read(st.opt[n], t)
	return v != st.inv[n], ok
}

// translateMonitor maps a WithMonitor net list (original IDs) onto the
// optimized circuit. A merged net monitors its surviving representative;
// nets the pass eliminated outright have no waveform to observe.
func (st *resubState) translateMonitor(nets []NetID) ([]NetID, error) {
	out := make([]NetID, len(nets))
	for i, m := range nets {
		if int(m) >= len(st.ok) {
			return nil, fmt.Errorf("udsim: WithMonitor net %d out of range", m)
		}
		if !st.ok[m] || st.isC[m] {
			return nil, fmt.Errorf("udsim: WithMonitor net %q was eliminated by resubstitution (%s)",
				st.res.Original.Net(m).Name, st.res.Fates[m].Kind)
		}
		out[i] = st.opt[m]
	}
	return out, nil
}

// resubCrossCheckVectors is the sampled bit-identity budget paid once at
// Open: enough to catch a mis-wired remap immediately, cheap enough to
// leave on unconditionally (the exhaustive replay lives in V014).
const resubCrossCheckVectors = 64

// resubCrossCheck replays sampled random vectors through the freshly
// built engine and an unoptimized twin of the same technique, comparing
// every surviving original net's settled value through the remap. The
// engine is handed back in the reset state.
func resubCrossCheck(e Engine, st *resubState, buildPlain func() (Engine, error)) error {
	if !st.res.Changed() {
		return nil // identity remap: nothing to cross-check
	}
	plain, err := buildPlain()
	if err != nil {
		return err
	}
	if c, ok := plain.(Closer); ok {
		defer c.Close()
	}
	orig := st.res.Original
	r := rand.New(rand.NewSource(st.res.Cert.Seed + 1))
	vec := make([]bool, len(orig.Inputs))
	if err := e.ResetConsistent(nil); err != nil {
		return err
	}
	if err := plain.ResetConsistent(nil); err != nil {
		return err
	}
	for v := 0; v < resubCrossCheckVectors; v++ {
		for i := range vec {
			vec[i] = r.Int63()&1 == 1
		}
		if err := e.Apply(vec); err != nil {
			return err
		}
		if err := plain.Apply(vec); err != nil {
			return err
		}
		for i := range orig.Nets {
			n := NetID(i)
			if !st.ok[n] {
				continue // stripped: unobservable by contract
			}
			if e.Final(n) != plain.Final(n) {
				return fmt.Errorf("udsim: resubstitution cross-check: net %q differs from the unoptimized engine on sampled vector %d",
					orig.Nets[i].Name, v)
			}
		}
	}
	return e.ResetConsistent(nil)
}

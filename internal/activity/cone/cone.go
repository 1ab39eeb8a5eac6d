// Package cone computes static primary-input support cones: for every
// net, the set of primary inputs that can reach it through the gate
// graph. The activity-gated execution strategy (internal/shard
// ActivityGated) uses these sets at plan time to decide, per input
// vector, which parts of the compiled program can possibly change —
// Maurer's Table 3 observation that most gates are idle on most
// vectors turned into a skip rule.
//
// The package sits below internal/parsim on purpose: the wider
// internal/activity package imports parsim for its observer bridge, so
// the cone data parsim needs at plan time lives here, in a leaf that
// depends only on the circuit model and the levelizer.
package cone

import (
	"math/bits"

	"udsim/internal/circuit"
	"udsim/internal/levelize"
)

// Set holds one primary-input support bitset per net, indexed by the
// position of the input in Circuit.Inputs (bit i = Inputs[i]).
type Set struct {
	numPI int
	words int      // bitset words per net
	bits  []uint64 // net-major: bits[n*words : (n+1)*words]
}

// Compute levelizes the circuit and returns its input cones.
func Compute(c *circuit.Circuit) (*Set, error) {
	a, err := levelize.Analyze(c)
	if err != nil {
		return nil, err
	}
	return ComputeOrdered(c, a.LevelOrder), nil
}

// ComputeOrdered computes input cones using an existing topological
// gate order (levelize.Analysis.LevelOrder), so callers that already
// levelized the circuit do not pay for a second analysis.
func ComputeOrdered(c *circuit.Circuit, order []circuit.GateID) *Set {
	numPI := len(c.Inputs)
	words := (numPI + 63) / 64
	if words == 0 {
		words = 1
	}
	s := &Set{
		numPI: numPI,
		words: words,
		bits:  make([]uint64, c.NumNets()*words),
	}
	for i, in := range c.Inputs {
		s.bits[int(in)*words+i/64] |= 1 << (uint(i) % 64)
	}
	// Gates in level order: each output accumulates its inputs' cones.
	// OR-accumulation (rather than overwrite) keeps multi-driver nets
	// conservative: the cone is the union over all drivers.
	for _, gid := range order {
		g := c.Gate(gid)
		out := s.Net(g.Output)
		for _, in := range g.Inputs {
			src := s.Net(in)
			for w := range out {
				out[w] |= src[w]
			}
		}
	}
	return s
}

// NumPI returns the number of primary inputs the bitsets cover.
func (s *Set) NumPI() int { return s.numPI }

// Words returns the number of 64-bit words per net bitset — the length
// callers must allocate for OrInto accumulators and Changed masks.
func (s *Set) Words() int { return s.words }

// Net returns net n's input-cone bitset (aliased, do not mutate).
func (s *Set) Net(n circuit.NetID) []uint64 {
	return s.bits[int(n)*s.words : (int(n)+1)*s.words]
}

// OrInto unions net n's cone into dst (len(dst) >= Words()).
func (s *Set) OrInto(dst []uint64, n circuit.NetID) {
	src := s.Net(n)
	for w := range src {
		dst[w] |= src[w]
	}
}

// Size returns the number of primary inputs in net n's cone.
func (s *Set) Size(n circuit.NetID) int {
	total := 0
	for _, w := range s.Net(n) {
		total += bits.OnesCount64(w)
	}
	return total
}

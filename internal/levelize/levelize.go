// Package levelize implements the analyses of §§1–2 of the paper: the
// classic levelization used by zero-delay LCC simulation, the minlevel
// variation, and their generalization to PC-sets (potential-change sets).
//
// The level of a net is the length of the longest path from the primary
// inputs; the minlevel is the length of the shortest path. The PC-set of a
// net is the set of all path lengths, equivalently (Lemma 1) the set of
// times at which the net is permitted to change value under the unit-delay
// model. Primary inputs and constants carry PC-set {0}.
package levelize

import (
	"fmt"

	"udsim/internal/circuit"
)

// Analysis holds levels, minlevels and PC-sets for one combinational
// circuit. All slices are indexed by NetID or GateID respectively; PC-sets
// are sorted ascending and never empty.
type Analysis struct {
	C *circuit.Circuit

	NetLevel  []int
	NetMin    []int
	GateLevel []int
	GateMin   []int

	NetPC  [][]int
	GatePC [][]int

	// Depth is the maximum net level: the number of gate delays needed
	// for any input change to propagate everywhere. The parallel
	// technique allocates Depth+1 bit positions per net.
	Depth int

	// LevelOrder lists all gates sorted by ascending level (ties broken
	// by gate ID): the order in which compiled code is generated.
	LevelOrder []circuit.GateID

	// ZeroAdded marks nets whose PC-set had the element 0 inserted by
	// InsertZeros because some consumer needs the net's value from the
	// previous input vector (Fig. 3 of the paper).
	ZeroAdded []bool

	// GateDelay is the per-gate delay the analysis was computed with
	// (all ones for the paper's unit-delay model).
	GateDelay []int
}

// Analyze computes levels, minlevels and PC-sets for a combinational
// circuit using the queue algorithm of §2. Sequential circuits must be
// lowered with BreakFlipFlops first.
func Analyze(c *circuit.Circuit) (*Analysis, error) {
	return AnalyzeWithDelays(c, nil)
}

// AnalyzeWithDelays generalizes the analysis to nominal integer gate
// delays: a gate's PC-set is the union of its input nets' PC-sets with
// every element incremented by the gate's own delay, so a PC element is
// the total delay of some input-to-net path. With all delays equal to one
// this is exactly §2's algorithm; the generalization is what the paper's
// closing sentence ("adapt them to even more accurate timing models")
// asks for, and the PC-set compiler consumes it unchanged apart from
// operand selection. gateDelay is indexed by GateID (nil = all ones);
// every delay must be ≥ 1.
func AnalyzeWithDelays(c *circuit.Circuit, gateDelay []int) (*Analysis, error) {
	if !c.Combinational() {
		return nil, fmt.Errorf("levelize: circuit %s is sequential; break flip-flops first", c.Name)
	}
	if gateDelay != nil {
		if len(gateDelay) != c.NumGates() {
			return nil, fmt.Errorf("levelize: %d delays for %d gates", len(gateDelay), c.NumGates())
		}
		for i, d := range gateDelay {
			if d < 1 {
				return nil, fmt.Errorf("levelize: gate %d has non-positive delay %d", i, d)
			}
		}
	}
	if gateDelay == nil {
		gateDelay = make([]int, c.NumGates())
		for i := range gateDelay {
			gateDelay[i] = 1
		}
	}
	a := &Analysis{
		C:         c,
		NetLevel:  make([]int, c.NumNets()),
		NetMin:    make([]int, c.NumNets()),
		GateLevel: make([]int, c.NumGates()),
		GateMin:   make([]int, c.NumGates()),
		NetPC:     make([][]int, c.NumNets()),
		GatePC:    make([][]int, c.NumGates()),
		ZeroAdded: make([]bool, c.NumNets()),
		GateDelay: gateDelay,
	}

	// Step 1: counts. For a gate, the number of input pins; for a net,
	// the number of driving gates.
	gateCount := make([]int, c.NumGates())
	netCount := make([]int, c.NumNets())
	for i := range c.Gates {
		gateCount[i] = len(c.Gates[i].Inputs)
	}
	for i := range c.Nets {
		netCount[i] = len(c.Nets[i].Drivers)
	}

	// The processing queue holds nets and gates; encode nets as
	// non-negative IDs and gates as ^id.
	queue := make([]int, 0, c.NumNets()+c.NumGates())
	for i := range c.Nets {
		if netCount[i] == 0 {
			queue = append(queue, i)
		}
	}
	for i := range c.Gates {
		if gateCount[i] == 0 { // constant gates
			queue = append(queue, ^i)
		}
	}

	processedNets, processedGates := 0, 0
	var u, merged []int // a gate's input PC-set union, built in reused buffers
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		if item >= 0 {
			// Step 4: a net.
			n := &c.Nets[item]
			u := []int{}
			for _, g := range n.Drivers {
				u = unionSorted(u, a.GatePC[g])
			}
			if len(u) == 0 {
				u = []int{0} // primary input or constant-free source
			}
			a.NetPC[item] = u
			a.NetMin[item] = u[0]
			a.NetLevel[item] = u[len(u)-1]
			processedNets++
			for _, g := range n.Fanout {
				gateCount[g]--
				if gateCount[g] == 0 {
					queue = append(queue, ^int(g))
				}
			}
		} else {
			// Step 5: a gate.
			gi := ^item
			g := &c.Gates[gi]
			d := gateDelay[gi]
			u = u[:0]
			for _, in := range g.Inputs {
				merged = mergeSorted(merged[:0], u, a.NetPC[in])
				u, merged = merged, u
			}
			if len(u) == 0 {
				u = append(u, -d) // constant gate: output PC {0}
			}
			up := make([]int, len(u))
			for i, v := range u {
				up[i] = v + d
			}
			a.GatePC[gi] = up
			a.GateMin[gi] = up[0]
			a.GateLevel[gi] = up[len(up)-1]
			processedGates++
			out := g.Output
			netCount[out]--
			if netCount[out] == 0 {
				queue = append(queue, int(out))
			}
		}
	}
	if processedNets != c.NumNets() || processedGates != c.NumGates() {
		return nil, fmt.Errorf("levelize: circuit %s is cyclic (%d/%d nets, %d/%d gates processed)",
			c.Name, processedNets, c.NumNets(), processedGates, c.NumGates())
	}

	for _, l := range a.NetLevel {
		if l > a.Depth {
			a.Depth = l
		}
	}
	a.LevelOrder = levelSort(c, a.GateLevel)
	return a, nil
}

// levelSort returns gate IDs ordered by ascending level, ties by ID, using
// a counting sort over levels (levels are small and dense).
func levelSort(c *circuit.Circuit, gateLevel []int) []circuit.GateID {
	maxL := 0
	for _, l := range gateLevel {
		if l > maxL {
			maxL = l
		}
	}
	buckets := make([][]circuit.GateID, maxL+1)
	for i := range c.Gates {
		l := gateLevel[i]
		buckets[l] = append(buckets[l], circuit.GateID(i))
	}
	out := make([]circuit.GateID, 0, c.NumGates())
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// InsertZeros performs the zero-insertion step of §2 (Fig. 3): for every
// gate, any input net whose minlevel is not minimal among that gate's
// inputs must retain its previous-vector value, so the element 0 is added
// to its PC-set. The monitored nets (if any) are treated as the inputs of
// one additional PRINT pseudo-gate. The ZeroAdded flags record which nets
// were extended. Primary inputs already contain 0 and are never flagged.
//
// InsertZeros mutates the receiver and is idempotent.
func (a *Analysis) InsertZeros(monitored []circuit.NetID) {
	addZero := func(net circuit.NetID) {
		pc := a.NetPC[net]
		if pc[0] == 0 {
			return
		}
		a.NetPC[net] = append([]int{0}, pc...)
		a.ZeroAdded[net] = true
	}
	group := func(nets []circuit.NetID) {
		if len(nets) == 0 {
			return
		}
		min := a.NetMin[nets[0]]
		for _, n := range nets[1:] {
			if a.NetMin[n] < min {
				min = a.NetMin[n]
			}
		}
		for _, n := range nets {
			if a.NetMin[n] != min {
				addZero(n)
			}
		}
	}
	for i := range a.C.Gates {
		group(a.C.Gates[i].Inputs)
	}
	group(monitored)
}

// PCSize returns the total number of PC-set elements over all nets: the
// number of net variables the PC-set method allocates (§2) and a good
// predictor of its generated code size.
func (a *Analysis) PCSize() int {
	n := 0
	for _, pc := range a.NetPC {
		n += len(pc)
	}
	return n
}

// GatePCSize returns the total number of gate PC-set elements, i.e. the
// number of gate simulations the PC-set method generates (excluding the
// zero elements, which generate initialization moves instead).
func (a *Analysis) GatePCSize() int {
	n := 0
	for _, pc := range a.GatePC {
		n += len(pc)
	}
	return n
}

// NumLevels returns the number of distinct time points 0..Depth, i.e. the
// bit-field width n of the parallel technique before optimization.
func (a *Analysis) NumLevels() int { return a.Depth + 1 }

// OperandAt returns the PC element of net `in` that holds the net's value
// at time t: the largest element ≤ t. Zero-insertion guarantees such an
// element exists for compiled operand selection; OperandAt panics
// otherwise.
func (a *Analysis) OperandAt(in circuit.NetID, t int) int {
	return a.NetPC[in][a.OperandIndex(in, t)]
}

// OperandIndex returns the position of OperandAt's element in
// NetPC[in], so a compiler holding one variable per PC element can
// address it without a second search.
func (a *Analysis) OperandIndex(in circuit.NetID, t int) int {
	return a.below(in, t+1)
}

// OperandTime returns, for a gate simulation generated at PC element t,
// the PC element of input net `in` whose variable must be used: the
// largest element strictly smaller than t. Zero-insertion guarantees such
// an element exists; OperandTime panics if it does not, since that
// indicates InsertZeros was skipped.
func (a *Analysis) OperandTime(in circuit.NetID, t int) int {
	return a.NetPC[in][a.below(in, t)]
}

// below returns the index of the largest element of NetPC[in] strictly
// smaller than t, panicking when there is none.
func (a *Analysis) below(in circuit.NetID, t int) int {
	pc := a.NetPC[in]
	// Binary search for the largest element < t.
	lo, hi := 0, len(pc)
	for lo < hi {
		mid := (lo + hi) / 2
		if pc[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		panic(fmt.Sprintf("levelize: no PC element of net %d below time %d (zero-insertion missing?)", in, t))
	}
	return lo - 1
}

// unionSorted merges two ascending int slices without duplicates.
func unionSorted(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	if len(b) == 0 {
		return a
	}
	return mergeSorted(make([]int, 0, len(a)+len(b)), a, b)
}

// mergeSorted appends the sorted union of sorted a and b to out.
func mergeSorted(out, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

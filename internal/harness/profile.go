package harness

import (
	"fmt"
	"io"
	"strings"

	"udsim"
	"udsim/internal/obs"
	"udsim/internal/texttable"
)

// ObsReport is the rendered runtime-observability profile of one
// circuit: per-level heat, the gated executor mix, and the unit-delay
// activity summary, all derived from a single observed stream.
type ObsReport struct {
	Circuit  string
	Snapshot *udsim.Snapshot
	Levels   *texttable.Table
	Notes    []string
}

// String renders the report's table and notes.
func (r *ObsReport) String() string {
	var b strings.Builder
	b.WriteString(r.Levels.String())
	for _, n := range r.Notes {
		b.WriteString("  " + n + "\n")
	}
	return b.String()
}

// WriteText writes the snapshot as Prometheus-style text exposition —
// the machine-readable twin of String.
func (r *ObsReport) WriteText(w io.Writer) error { return r.Snapshot.WriteText(w) }

// heatBar renders v/max as a bar of up to width '#' characters (ASCII
// so texttable's byte-width alignment holds).
func heatBar(v, max int64, width int) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := int(int64(width) * v / max)
	if n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

func ms(nanos int64) string { return fmt.Sprintf("%.2f", float64(nanos)/1e6) }

// ObsProfile streams a 1%-toggle stream of the circuit through the
// activity-gated parallel engine, whose level loop books each level it
// runs, with an activity-enabled observer attached, and renders the
// per-level heat profile.
func ObsProfile(o Options, name string) (*ObsReport, error) {
	o = o.withDefaults()
	c, err := benchCircuit(o, name)
	if err != nil {
		return nil, err
	}
	vecs := toggleVectors(o.Vectors, len(c.Inputs), 0.01, o.Seed)
	ob := udsim.NewObserver(udsim.ObserverConfig{Activity: true})
	e, err := udsim.Open(c, udsim.TechParallel,
		udsim.WithWordBits(o.WordBits),
		udsim.WithExec(udsim.ExecActivityGated, 1),
		udsim.WithObserver(ob))
	if err != nil {
		return nil, err
	}
	se, ok := e.(streamEngine)
	if !ok {
		return nil, fmt.Errorf("harness: %s engine cannot stream", e.EngineName())
	}
	defer se.Close()
	if err := se.ResetConsistent(nil); err != nil {
		return nil, err
	}
	if err := se.ApplyStream(vecs.Bits); err != nil {
		return nil, err
	}
	s := se.Snapshot()
	if s == nil || s.Vectors == 0 {
		return nil, fmt.Errorf("harness: observer saw no vectors")
	}

	lt := texttable.New(
		fmt.Sprintf("%s — per-level heat (%d vectors, activity-gated, 1%% toggle)", name, s.Vectors),
		"Level", "Instrs", "Time ms", "Share", "Heat")
	var totalNanos, maxNanos int64
	for l := range s.Level {
		n := s.Level[l].Nanos
		totalNanos += n
		if n > maxNanos {
			maxNanos = n
		}
	}
	for l := range s.Level {
		n := s.Level[l].Nanos
		share := 0.0
		if totalNanos > 0 {
			share = 100 * float64(n) / float64(totalNanos)
		}
		lt.Add(l, s.Level[l].Instrs, ms(n),
			fmt.Sprintf("%.1f%%", share),
			heatBar(n, maxNanos, 30))
	}

	peak, peakT := int64(0), 0
	for t, v := range s.Steps {
		if v > peak {
			peak, peakT = v, t
		}
	}
	mix := s.GatedVectors
	notes := []string{
		fmt.Sprintf("throughput %.0f vectors/s; %d vectors on the sequential form, %d on the level loop (level 0 also books the sequential form)",
			s.VectorsPerSec(), mix[obs.GatedSequential], mix[obs.GatedCaller]),
		fmt.Sprintf("activity: %d toggles, %d glitches over %d vectors; peak %d changes at t=%d",
			s.TotalToggles(), s.TotalGlitches(), s.ActivityVectors, peak, peakT),
	}
	return &ObsReport{Circuit: name, Snapshot: s, Levels: lt, Notes: notes}, nil
}

package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// WriteText renders the snapshot in the Prometheus text exposition
// format (one `name{labels} value` sample per line, `# TYPE` comments
// per family). The export carries the stream-level counters, the
// per-worker busy time, the per-(level, shard) grid and the
// activity-per-step profile — everything a scraper or a diff needs,
// except the per-net activity vectors, which stay in the Snapshot
// (they are circuit-sized and belong in internal/activity reports).
func (s *Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	eng := s.Engine
	if eng == "" {
		eng = "unknown"
	}
	sample := func(name, labels string, v float64) {
		if labels == "" {
			fmt.Fprintf(bw, "%s{engine=%q} %s\n", name, eng, formatValue(v))
		} else {
			fmt.Fprintf(bw, "%s{engine=%q,%s} %s\n", name, eng, labels, formatValue(v))
		}
	}
	family := func(name, typ string) { fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ) }
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }

	family("udsim_vectors_total", "counter")
	sample("udsim_vectors_total", "", float64(s.Vectors))
	family("udsim_runs_total", "counter")
	sample("udsim_runs_total", "", float64(s.Runs))
	family("udsim_run_seconds_total", "counter")
	sample("udsim_run_seconds_total", "", secs(s.RunNanos))
	family("udsim_init_runs_total", "counter")
	sample("udsim_init_runs_total", "", float64(s.InitRuns))
	family("udsim_init_seconds_total", "counter")
	sample("udsim_init_seconds_total", "", secs(s.InitNanos))
	family("udsim_instrs_total", "counter")
	sample("udsim_instrs_total", "", float64(s.Instrs))
	family("udsim_init_instrs_total", "counter")
	sample("udsim_init_instrs_total", "", float64(s.InitInstrs))
	family("udsim_state_words_total", "counter")
	sample("udsim_state_words_total", "", float64(s.Words))
	family("udsim_scratch_refs_total", "counter")
	sample("udsim_scratch_refs_total", "", float64(s.Scratch))
	family("udsim_shards_skipped_total", "counter")
	sample("udsim_shards_skipped_total", "", float64(s.ShardsSkipped))
	family("udsim_gating_overhead_seconds_total", "counter")
	sample("udsim_gating_overhead_seconds_total", "", secs(s.GatingNanos))
	family("udsim_gating_vectors_total", "counter")
	for x, name := range GatedExecutors {
		sample("udsim_gating_vectors_total", fmt.Sprintf("executor=%q", name), float64(s.GatedVectors[x]))
	}
	family("udsim_wall_seconds", "gauge")
	sample("udsim_wall_seconds", "", secs(s.WallNanos))
	family("udsim_vectors_per_second", "gauge")
	sample("udsim_vectors_per_second", "", s.VectorsPerSec())

	if len(s.Worker) > 0 {
		family("udsim_worker_busy_seconds_total", "counter")
		family("udsim_worker_instrs_total", "counter")
		for w := range s.Worker {
			l := fmt.Sprintf("worker=%q", strconv.Itoa(w))
			sample("udsim_worker_busy_seconds_total", l, secs(s.Worker[w].BusyNanos))
			sample("udsim_worker_instrs_total", l, float64(s.Worker[w].Instrs))
		}
	}
	if len(s.Level) > 0 {
		family("udsim_level_seconds_total", "counter")
		family("udsim_level_instrs_total", "counter")
		for l := range s.Level {
			for w := range s.Level[l].ShardNanos {
				lb := fmt.Sprintf("level=%q,shard=%q", strconv.Itoa(l), strconv.Itoa(w))
				sample("udsim_level_seconds_total", lb, secs(s.Level[l].ShardNanos[w]))
				sample("udsim_level_instrs_total", lb, float64(s.Level[l].ShardInstrs[w]))
			}
		}
	}
	family("udsim_guard_faults_total", "counter")
	sample("udsim_guard_faults_total", `kind="panic"`, float64(s.Guard.Panics))
	sample("udsim_guard_faults_total", `kind="deadline"`, float64(s.Guard.Deadlines))
	sample("udsim_guard_faults_total", `kind="canceled"`, float64(s.Guard.Cancels))
	sample("udsim_guard_faults_total", `kind="corruption"`, float64(s.Guard.Corruptions))
	sample("udsim_guard_faults_total", `kind="subprocess"`, float64(s.Guard.Subprocesses))
	sample("udsim_guard_faults_total", `kind="protocol"`, float64(s.Guard.Protocols))
	family("udsim_guard_retries_total", "counter")
	sample("udsim_guard_retries_total", "", float64(s.Guard.Retries))
	family("udsim_guard_quarantines_total", "counter")
	sample("udsim_guard_quarantines_total", "", float64(s.Guard.Quarantines))
	family("udsim_guard_replayed_vectors_total", "counter")
	sample("udsim_guard_replayed_vectors_total", "", float64(s.Guard.ReplayedVectors))
	family("udsim_guard_crosschecks_total", "counter")
	sample("udsim_guard_crosschecks_total", "", float64(s.Guard.CrossChecks))
	family("udsim_guard_crosscheck_mismatches_total", "counter")
	sample("udsim_guard_crosscheck_mismatches_total", "", float64(s.Guard.Mismatches))

	// Native-backend supervisor counters.
	family("udsim_native_builds_total", "counter")
	sample("udsim_native_builds_total", "", float64(s.Native.Builds))
	family("udsim_native_build_seconds_total", "counter")
	sample("udsim_native_build_seconds_total", "", float64(s.Native.BuildNanos)/1e9)
	family("udsim_native_respawns_total", "counter")
	sample("udsim_native_respawns_total", "", float64(s.Native.Respawns))
	family("udsim_native_protocol_errors_total", "counter")
	sample("udsim_native_protocol_errors_total", "", float64(s.Native.ProtocolErrors))
	family("udsim_native_fallbacks_total", "counter")
	sample("udsim_native_fallbacks_total", "", float64(s.Native.Fallbacks))
	family("udsim_native_frames_total", "counter")
	sample("udsim_native_frames_total", `dir="sent"`, float64(s.Native.FramesSent))
	sample("udsim_native_frames_total", `dir="received"`, float64(s.Native.FramesReceived))

	if s.Steps != nil {
		family("udsim_activity_vectors_total", "counter")
		sample("udsim_activity_vectors_total", "", float64(s.ActivityVectors))
		family("udsim_activity_toggles_total", "counter")
		sample("udsim_activity_toggles_total", "", float64(s.TotalToggles()))
		family("udsim_activity_glitches_total", "counter")
		sample("udsim_activity_glitches_total", "", float64(s.TotalGlitches()))
		family("udsim_activity_transitions_total", "counter")
		for t := range s.Steps {
			sample("udsim_activity_transitions_total",
				fmt.Sprintf("step=%q", strconv.Itoa(t)), float64(s.Steps[t]))
		}
	}
	return bw.Flush()
}

// formatValue renders a sample value the way Prometheus clients do:
// shortest float representation, integral values without an exponent.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// sampleLine matches one exposition-format sample:
// name{label="value",...} number — the subset WriteText emits (every
// sample here carries at least the engine label).
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\} (\S+)$`)

// ValidateText checks that r is a well-formed metrics export: every
// non-blank line is either a comment or a sample whose value parses as
// a finite float, and at least one sample is present. CI runs the
// udbench -profile export through it so a malformed export fails the
// build.
func ValidateText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo, samples := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("obs: export line %d is not a metric sample: %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err != nil {
			return fmt.Errorf("obs: export line %d has unparseable value: %q", lineNo, line)
		}
		if v != v || v < -1e300 || v > 1e300 { // NaN or absurd magnitude
			return fmt.Errorf("obs: export line %d has non-finite value: %q", lineNo, line)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: reading export: %w", err)
	}
	if samples == 0 {
		return fmt.Errorf("obs: export contains no metric samples")
	}
	return nil
}

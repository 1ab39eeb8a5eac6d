// Package cliflags registers the execution-related flags every udsim
// CLI shares — -exec, -workers, -guard, -deadline — with one
// canonical spelling and help text each, so udsim, udbench, udlint,
// udchaos and udserve stay word-for-word consistent. Tool-specific
// nuance goes in an optional note appended to the canonical usage
// rather than a reworded flag.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// usage joins the canonical help text with an optional per-tool note.
func usage(canonical string, note []string) string {
	if len(note) > 0 && note[0] != "" {
		return canonical + " (" + note[0] + ")"
	}
	return canonical
}

// Exec registers -exec: the stream execution strategy for compiled
// engines.
func Exec(fs *flag.FlagSet, note ...string) *string {
	return fs.String("exec", "", usage(
		"stream execution strategy for compiled engines: sequential, activity-gated, vector-batch, auto, native", note))
}

// Workers registers -workers: the worker count for the execution
// strategy.
func Workers(fs *flag.FlagSet, def int, note ...string) *int {
	return fs.Int("workers", def, usage(
		"worker count for the vector-batch strategy (0 = GOMAXPROCS)", note))
}

// WorkersList registers -workers as a comma-separated list (the
// matrix-shaped tools: udbench sweeps several worker counts per run).
// Parse the value with ParseWorkersList.
func WorkersList(fs *flag.FlagSet, note ...string) *string {
	return fs.String("workers", "", usage(
		"comma-separated worker counts (default GOMAXPROCS)", note))
}

// ParseWorkersList parses a WorkersList value ("" means nil: the tool's
// default).
func ParseWorkersList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers value %q", f)
		}
		out = append(out, w)
	}
	return out, nil
}

// Guard registers -guard: the guarded supervisor.
func Guard(fs *flag.FlagSet, note ...string) *bool {
	return fs.Bool("guard", false, usage(
		"run under the guarded supervisor: panics/stalls degrade to sequential replay instead of crashing (compiled engines)", note))
}

// Deadline registers -deadline: the overall request/stream deadline.
func Deadline(fs *flag.FlagSet, def time.Duration, note ...string) *time.Duration {
	return fs.Duration("deadline", def, usage(
		"overall deadline for a guarded vector stream (0 = none)", note))
}

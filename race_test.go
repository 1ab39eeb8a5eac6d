//go:build race

package udsim

// raceSlowdown scales the wall-clock budgets of timing-sensitive tests
// under the race detector, which slows the instrumented code 5–20× and
// pauses it for several milliseconds at times.
const raceSlowdown = 10

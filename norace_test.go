//go:build !race

package udsim

// raceSlowdown scales the wall-clock budgets of timing-sensitive tests
// under the race detector (see race_test.go); 1 without it.
const raceSlowdown = 1

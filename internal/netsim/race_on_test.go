//go:build race

package netsim_test

// raceEnabled mirrors the test binary's -race setting. The race detector
// makes sync.Pool drop a quarter of its Puts at random, so the allocation
// budgets, which count on the engine's pools, only hold without it.
const raceEnabled = true

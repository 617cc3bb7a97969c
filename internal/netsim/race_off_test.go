//go:build !race

package netsim_test

const raceEnabled = false

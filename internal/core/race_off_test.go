//go:build !race

package core

// raceEnabled reports that the race detector instruments this build;
// allocation-exactness tests skip themselves under it.
const raceEnabled = false

//go:build !race

package rbc

// raceEnabled reports a race-detector build, whose runtime allocates on
// paths the exact allocation pins measure.
const raceEnabled = false

//go:build !race

package smr

// raceEnabled reports a race-detector build, whose runtime allocates on
// paths the exact allocation pins measure.
const raceEnabled = false

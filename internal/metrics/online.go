package metrics

import "math"

// This file holds the constant-memory moments accumulator that experiment
// tables and the checkpointable sweep engine (see internal/runner) reduce
// into: O(1) state however many observations arrive, so a million-run sweep
// aggregates in constant memory. Quantiles come from Hist (hist.go).
//
// Determinism contract: an Online is a pure function of its observation
// *sequence* — no randomness, no clocks, no map iteration — and its entire
// state is exported with JSON tags. Go's encoding/json renders float64 with
// the shortest representation that round-trips exactly, and none of the
// fields can hold NaN or ±Inf, so marshalling an accumulator and
// unmarshalling it reproduces the state bit for bit. The sweep engine's
// checkpoint/resume guarantee (a resumed sweep is byte-identical to an
// uninterrupted one) rests on exactly this property.

// Online is a Welford accumulator: streaming count, mean, variance, min, and
// max in constant memory.
type Online struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	// M2 is the running sum of squared deviations from the mean.
	M2  float64 `json:"m2"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Add absorbs one observation.
func (o *Online) Add(x float64) {
	if o.Count == 0 {
		o.Min, o.Max = x, x
	} else {
		if x < o.Min {
			o.Min = x
		}
		if x > o.Max {
			o.Max = x
		}
	}
	o.Count++
	delta := x - o.Mean
	o.Mean += delta / float64(o.Count)
	o.M2 += delta * (x - o.Mean)
}

// StdDev returns the population standard deviation.
func (o *Online) StdDev() float64 {
	if o.Count == 0 {
		return 0
	}
	return math.Sqrt(o.M2 / float64(o.Count))
}

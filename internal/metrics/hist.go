package metrics

// This file holds the fixed-bucket logarithmic histogram, the package's one
// quantile mechanism: the telemetry plane aggregates latencies into it (see
// internal/sim.Telemetry) and the sweep engine the last decision round of
// each run (internal/runner.Aggregate). Unlike the Welford accumulator in
// online.go — whose floating-point state is deterministic only under a fixed
// fold *order* — a Hist is pure integer arithmetic over fixed bucket
// boundaries, so Merge is exactly associative AND commutative: any grouping,
// any order of partial merges produces bit-identical state. That is the
// property that lets per-run telemetry from a parallel sweep be folded in
// worker completion order or index order interchangeably and still satisfy
// the repository's bitwise worker-independence contract.

import (
	"fmt"
	"math"
	"math/bits"
)

// histMaxBucket is the largest bucket index: bucket 0 holds non-positive
// observations, bucket b ∈ [1, 64] holds v with bits.Len64(v) == b, i.e.
// v ∈ [2^(b-1), 2^b).
const histMaxBucket = 64

// Hist is a log2 fixed-bucket histogram of int64 observations (latencies in
// sim ticks, sizes in bytes). The entire state is exported integers with JSON
// tags, so marshalling round-trips bit for bit; Buckets is trimmed to the
// highest occupied bucket, which is a pure function of the observation
// multiset (the length is determined by the largest observation), keeping the
// JSON rendering canonical.
type Hist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Min and Max are exact extremes, meaningful when Count > 0.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Buckets[b] counts observations in bucket b (see histMaxBucket).
	Buckets []int64 `json:"buckets,omitempty"`
}

// histBucket returns the bucket index for one observation.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// histUpper returns the largest value bucket b can hold — the value Quantile
// reports for ranks landing in b (clamped by the exact extremes).
func histUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= histMaxBucket {
		return math.MaxInt64
	}
	return int64(1)<<uint(b) - 1
}

// Observe absorbs one observation.
func (h *Hist) Observe(v int64) {
	if h.Count == 0 {
		h.Min, h.Max = v, v
	} else {
		if v < h.Min {
			h.Min = v
		}
		if v > h.Max {
			h.Max = v
		}
	}
	h.Count++
	h.Sum += v
	b := histBucket(v)
	for len(h.Buckets) <= b {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[b]++
}

// Check reports whether a histogram's buckets are consistent: none negative,
// at most histMaxBucket+1 of them, and summing to Count. Observe and Merge
// always leave a histogram that passes; a decoded one may not.
func (h *Hist) Check() error {
	var sum int64
	ok := len(h.Buckets) <= histMaxBucket+1
	for _, c := range h.Buckets {
		ok = ok && c >= 0 && c <= h.Count-sum
		sum += c
	}
	if !ok || sum != h.Count {
		return fmt.Errorf("metrics: histogram of count %d has buckets %v", h.Count, h.Buckets)
	}
	return nil
}

// Merge folds another histogram into h. Integer bucket addition and exact
// min/max make Merge associative and commutative — the property the
// merge-order determinism tests pin.
func (h *Hist) Merge(o Hist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 {
		h.Min, h.Max = o.Min, o.Max
	} else {
		if o.Min < h.Min {
			h.Min = o.Min
		}
		if o.Max > h.Max {
			h.Max = o.Max
		}
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for len(h.Buckets) < len(o.Buckets) {
		h.Buckets = append(h.Buckets, 0)
	}
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
}

// Quantile returns the q-quantile by nearest rank over the buckets: the upper
// bound of the bucket containing the rank, clamped to the exact [Min, Max].
// Resolution is a factor of two — enough to separate a 10-tick echo from a
// 500-tick adaptive stall — and, being a pure function of integer state, the
// answer is identical however the histogram was assembled.
func (h *Hist) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range h.Buckets {
		cum += c
		if cum >= rank {
			v := histUpper(b)
			if v > h.Max {
				v = h.Max
			}
			if v < h.Min {
				v = h.Min
			}
			return v
		}
	}
	return h.Max
}

package metrics

// Merge-order determinism tests for the sweep aggregation paths. Two
// different mechanisms are pinned here, matching how internal/runner
// actually aggregates:
//
//   - Hist.Merge is exactly associative and commutative (pure integer
//     state), so per-run telemetry may be folded in ANY order — worker
//     completion order included — and stay bitwise identical.
//   - Online has no merge at all; its floating-point Add is
//     deterministic only per observation *sequence*. The sweep engine's
//     reorder window (internal/runner.SweepStream) therefore folds results
//     in strict index order regardless of which worker finished first, and
//     the property that makes that sufficient is pinned below: folding the
//     same observations in index order after any completion shuffle is a
//     no-op on the state.

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomHistObservations draws a latency-shaped sample: mostly small values
// with a heavy tail, plus zeros (same-tick delivery) and the occasional huge
// outlier crossing many buckets.
func randomHistObservations(rng *rand.Rand, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		switch rng.Intn(10) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = rng.Int63n(1 << 40)
		default:
			xs[i] = rng.Int63n(512)
		}
	}
	return xs
}

// histOf builds a histogram from a sample.
func histOf(xs []int64) Hist {
	var h Hist
	for _, x := range xs {
		h.Observe(x)
	}
	return h
}

// TestHistMergeCommutativeAssociative: splitting one sample into random
// parts and merging the partial histograms in a random order — and with a
// random grouping (fold tree) — reproduces the single-pass histogram bit
// for bit, including the JSON rendering.
func TestHistMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		xs := randomHistObservations(rng, 200+rng.Intn(400))
		want := histOf(xs)

		// Split into 1..12 contiguous parts.
		parts := 1 + rng.Intn(12)
		cuts := make([]int, 0, parts+1)
		cuts = append(cuts, 0)
		for i := 1; i < parts; i++ {
			cuts = append(cuts, rng.Intn(len(xs)))
		}
		cuts = append(cuts, len(xs))
		sort.Ints(cuts)
		hs := make([]Hist, 0, parts)
		for i := 1; i < len(cuts); i++ {
			hs = append(hs, histOf(xs[cuts[i-1]:cuts[i]]))
		}

		// Random permutation (commutativity) and random fold grouping
		// (associativity): repeatedly merge two random entries.
		rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
		for len(hs) > 1 {
			i := rng.Intn(len(hs) - 1)
			hs[i].Merge(hs[i+1])
			hs = append(hs[:i+1], hs[i+2:]...)
		}
		got := hs[0]

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged state diverged\n got: %+v\nwant: %+v", trial, got, want)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("trial %d: JSON diverged\n got: %s\nwant: %s", trial, gj, wj)
		}
	}
}

// TestHistQuantileWithinBounds: quantiles are clamped to the exact extremes
// and never decrease in q.
func TestHistQuantileWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := randomHistObservations(rng, 500)
	h := histOf(xs)
	prev := h.Quantile(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < h.Min || v > h.Max {
			t.Fatalf("Quantile(%v) = %d outside [%d, %d]", q, v, h.Min, h.Max)
		}
		if v < prev {
			t.Fatalf("Quantile(%v) = %d decreased below %d", q, v, prev)
		}
		prev = v
	}
}

// TestHistZeroMergeIdentity: merging an empty histogram is a no-op in either
// direction.
func TestHistZeroMergeIdentity(t *testing.T) {
	h := histOf([]int64{3, 9, 200})
	want := h
	h.Merge(Hist{})
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("merging zero changed state: %+v != %+v", h, want)
	}
	var z Hist
	z.Merge(want)
	if !reflect.DeepEqual(z, want) {
		t.Fatalf("merging into zero lost state: %+v != %+v", z, want)
	}
}

// TestOnlineSummaryIndexOrderFoldDeterminism models the sweep engine's
// reorder window: runs complete in arbitrary worker order, but the engine
// buffers completions and feeds the reducer in strict index order. Whatever
// the completion shuffle, the Welford accumulator's state must be bitwise
// identical to the in-order fold's, which is exactly why
// SweepStream's non-associative reducers stay worker-count independent.
func TestOnlineSummaryIndexOrderFoldDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(200)
		obs := make([]float64, n)
		for i := range obs {
			obs[i] = float64(rng.Int63n(1 << 30))
		}

		fold := func(completion []int) string {
			// Deliver results in `completion` order into a reorder buffer,
			// fold in index order — the SweepStream discipline.
			buffered := make(map[int]float64, n)
			var s Online
			next := 0
			for _, idx := range completion {
				buffered[idx] = obs[idx]
				for {
					x, ok := buffered[next]
					if !ok {
						break
					}
					s.Add(x)
					delete(buffered, next)
					next++
				}
			}
			j, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			return string(j)
		}

		inOrder := make([]int, n)
		for i := range inOrder {
			inOrder[i] = i
		}
		want := fold(inOrder)
		for shuffles := 0; shuffles < 5; shuffles++ {
			perm := rng.Perm(n)
			if got := fold(perm); got != want {
				t.Fatalf("trial %d: index-order fold diverged under completion shuffle\n got: %s\nwant: %s", trial, got, want)
			}
		}
	}
}

// TestOnlineAddOrderSensitivity documents WHY the reorder window
// exists: feeding the same observations in a different order may produce
// different floating-point state. This is not a bug to fix but a property to
// respect — if this test ever starts failing (order-insensitive state), the
// reorder window could be dropped; until then it cannot be.
func TestOnlineAddOrderSensitivity(t *testing.T) {
	var a, b Online
	xs := []float64{1e17, 3, -1e17, 7, 11, 0.1, 2e16}
	for _, x := range xs {
		a.Add(x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		b.Add(xs[i])
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) == string(bj) {
		t.Skip("this sample happens to fold order-insensitively; the reorder window is still required in general")
	}
}

// TestHistCheck: a histogram built by Observe passes; negative buckets,
// buckets not summing to Count and more than 65 buckets fail.
func TestHistCheck(t *testing.T) {
	h := histOf(randomHistObservations(rand.New(rand.NewSource(5)), 300))
	if err := h.Check(); err != nil {
		t.Fatalf("observed histogram: %v", err)
	}
	for _, bad := range []Hist{
		{Count: 1, Buckets: []int64{-1, 2}},
		{Count: 3, Buckets: []int64{1, 1}},
		{Count: 1, Buckets: []int64{1, 1}},
		{Count: 0, Buckets: make([]int64, histMaxBucket+2)},
	} {
		if err := bad.Check(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

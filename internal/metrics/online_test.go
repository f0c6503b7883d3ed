package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// onlineOf folds a sample into a Welford accumulator in slice order.
func onlineOf(xs []float64) Online {
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return o
}

// TestSummarizeEmpty: summarizing no observations leaves the zero state.
func TestSummarizeEmpty(t *testing.T) {
	o := onlineOf(nil)
	if o.Count != 0 || o.Mean != 0 || o.StdDev() != 0 || o.Min != 0 || o.Max != 0 {
		t.Errorf("empty summary = %+v sd %v", o, o.StdDev())
	}
}

// TestSummarizeKnown: {1..5} has mean 3, population stddev sqrt(2), min 1
// and max 5.
func TestSummarizeKnown(t *testing.T) {
	o := onlineOf([]float64{1, 2, 3, 4, 5})
	if o.Count != 5 {
		t.Errorf("Count = %d", o.Count)
	}
	if o.Mean != 3 {
		t.Errorf("Mean = %v, want 3", o.Mean)
	}
	if o.Min != 1 || o.Max != 5 {
		t.Errorf("Min/Max = %v/%v", o.Min, o.Max)
	}
	if math.Abs(o.StdDev()-math.Sqrt(2)) > 1e-12 {
		t.Errorf("StdDev = %v, want sqrt(2)", o.StdDev())
	}
}

// TestSummarizeSingle: one observation is its own mean, min and max, with
// zero spread.
func TestSummarizeSingle(t *testing.T) {
	o := onlineOf([]float64{7})
	if o.Count != 1 || o.Mean != 7 || o.Min != 7 || o.Max != 7 || o.StdDev() != 0 {
		t.Errorf("single summary = %+v sd %v", o, o.StdDev())
	}
}

// TestOnlineMatchesSummarize: the Welford accumulator must agree with a
// two-pass summary of a large sample on count, mean, stddev, min, and max,
// to 1e-9.
func TestOnlineMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*25 + 100
	}
	o := onlineOf(xs)
	var sum, sq float64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		sum += x
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	if int(o.Count) != len(xs) {
		t.Fatalf("count = %d, want %d", o.Count, len(xs))
	}
	approx := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("mean", o.Mean, mean)
	approx("stddev", o.StdDev(), math.Sqrt(sq/float64(len(xs))))
	approx("min", o.Min, lo)
	approx("max", o.Max, hi)
}

// TestOnlineSummaryDeterminism: feeding the same observation sequence twice
// yields bitwise identical accumulator state.
func TestOnlineSummaryDeterminism(t *testing.T) {
	feed := func() Online {
		var o Online
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 2500; i++ {
			o.Add(rng.Float64() * float64(i%97))
		}
		return o
	}
	ja, _ := json.Marshal(feed())
	jb, _ := json.Marshal(feed())
	if string(ja) != string(jb) {
		t.Fatal("identical sequences produced different accumulator states")
	}
}

// TestOnlineJSONRoundTrip: the accumulator state must survive a JSON round
// trip bit for bit — the property the sweep engine's checkpoint/resume
// guarantee is built on.
func TestOnlineJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Online
	for i := 0; i < 777; i++ {
		s.Add(rng.ExpFloat64() * 123.456)
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var restored Online
	if err := json.Unmarshal(buf, &restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, restored) {
		t.Fatalf("state changed across JSON round trip:\n got %+v\nwant %+v", restored, s)
	}
	// And the round trip must be stable under further identical input.
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		s.Add(x)
		restored.Add(x)
	}
	if !reflect.DeepEqual(s, restored) {
		t.Fatal("restored accumulator diverged from original under identical input")
	}
}

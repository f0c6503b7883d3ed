package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// sweepMatrix is a mixed bag of configurations exercising both protocols,
// several coins, adversaries, and schedulers across a spread of seeds.
func sweepMatrix() []Config {
	var cfgs []Config
	for seed := int64(1); seed <= 6; seed++ {
		cfgs = append(cfgs,
			Config{
				N: 4, F: 1, Byzantine: -1,
				Protocol: ProtocolBracha, Coin: CoinCommon,
				Adversary: AdvSilent, Scheduler: SchedUniform,
				Inputs: InputSplit, Seed: seed,
			},
			Config{
				N: 7, F: 2, Byzantine: -1,
				Protocol: ProtocolBracha, Coin: CoinLocal,
				Adversary: AdvLiar, Scheduler: SchedRushByz,
				Inputs: InputRandom, Seed: seed, MaxDeliveries: 400_000,
			},
			Config{
				N: 6, F: 1, Byzantine: -1,
				Protocol: ProtocolBenOr, Coin: CoinLocal,
				Adversary: AdvSilent, Scheduler: SchedFIFO,
				Inputs: InputSplit, Seed: seed, MaxRounds: 60, MaxDeliveries: 400_000,
			})
	}
	return cfgs
}

// TestSweepMatchesRun: the sweep engine must produce exactly what serial
// Run calls produce, in input order.
func TestSweepMatchesRun(t *testing.T) {
	cfgs := sweepMatrix()
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got, err := Sweep(cfgs, 4, Run)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("cfg %d: sweep result differs from serial Run\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestSweepWorkerCountIndependence: results must be bitwise identical for
// every worker count — completion order must never leak into the output.
func TestSweepWorkerCountIndependence(t *testing.T) {
	cfgs := sweepMatrix()
	base, err := Sweep(cfgs, 1, Run)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		got, err := Sweep(cfgs, workers, Run)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(got[i], base[i]) {
				t.Errorf("workers=%d cfg %d: result differs from workers=1", workers, i)
			}
		}
	}
}

// TestSweepGOMAXPROCSIndependence: with workers=0 the pool sizes itself
// from GOMAXPROCS; changing GOMAXPROCS must not change the results.
func TestSweepGOMAXPROCSIndependence(t *testing.T) {
	cfgs := sweepMatrix()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	base, err := Sweep(cfgs, 0, Run)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	got, err := Sweep(cfgs, 0, Run)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], base[i]) {
			t.Errorf("cfg %d: GOMAXPROCS=4 result differs from GOMAXPROCS=1", i)
		}
	}
}

// TestSweepTraceIndependence: even full event traces (the strictest
// observable) are identical across worker counts.
func TestSweepTraceIndependence(t *testing.T) {
	cfg := Config{
		N: 7, F: 2, Byzantine: -1,
		Protocol: ProtocolBracha, Coin: CoinCommon,
		Adversary: AdvEquivocator, Scheduler: SchedRushByz,
		Inputs: InputSplit, Trace: true,
	}
	seeds := []int64{11, 12, 13, 14, 15, 16, 17, 18}
	hashes := func(workers int) []string {
		results, err := SweepSeeds(cfg, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(results))
		for i, res := range results {
			out[i] = fmt.Sprintf("%x", dumpTrace(res.Recorder))
		}
		return out
	}
	serial, parallel := hashes(1), hashes(8)
	for i := range seeds {
		if serial[i] != parallel[i] {
			t.Errorf("seed %d: trace differs between workers=1 and workers=8", seeds[i])
		}
	}
}

// TestSweepErrorDeterministic: the reported error is the lowest-index
// failing configuration regardless of scheduling, and errors do not abort
// sibling bookkeeping.
func TestSweepErrorDeterministic(t *testing.T) {
	cfgs := sweepMatrix()
	bad := Config{N: 4, F: 2} // violates n > 3f
	cfgs[5] = bad
	cfgs[9] = bad
	wantErr := func() error {
		_, err := Run(bad)
		return err
	}()
	if wantErr == nil {
		t.Fatal("expected bad config to fail")
	}
	for _, workers := range []int{1, 4} {
		res, err := Sweep(cfgs, workers, Run)
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("workers=%d: error = %v, want %v", workers, err, wantErr)
		}
		if res != nil {
			t.Errorf("workers=%d: results not discarded on error", workers)
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("workers=%d: error does not wrap ErrBadConfig: %v", workers, err)
		}
	}
}

package runner

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestSweepStreamMatchesSweep: the streaming engine must hand emit exactly
// the results the buffered Sweep produces, in strict index order, for every
// worker count.
func TestSweepStreamMatchesSweep(t *testing.T) {
	cfgs := sweepMatrix()
	want, err := Sweep(cfgs, 1, Run)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		next := 0
		err := SweepStream(len(cfgs), workers, func(i int) (*Result, error) { return Run(cfgs[i]) },
			func(i int, res *Result) error {
				if i != next {
					t.Fatalf("workers=%d: emit index %d, want %d (out of order)", workers, i, next)
				}
				next++
				if !reflect.DeepEqual(res, want[i]) {
					t.Errorf("workers=%d cfg %d: streamed result differs from Sweep", workers, i)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if next != len(cfgs) {
			t.Fatalf("workers=%d: emitted %d of %d results", workers, next, len(cfgs))
		}
	}
}

// TestSweepStreamErrorSemantics: the lowest-index failing run's error wins,
// emit never sees indices at or beyond the failure, and errors returned by
// emit abort the sweep.
func TestSweepStreamErrorSemantics(t *testing.T) {
	cfgs := sweepMatrix()
	bad := Config{N: 4, F: 2} // violates f < n
	cfgs[5] = bad
	cfgs[9] = bad
	for _, workers := range []int{1, 4} {
		var got []int
		err := SweepStream(len(cfgs), workers, func(i int) (*Result, error) { return Run(cfgs[i]) },
			func(i int, _ *Result) error {
				got = append(got, i)
				return nil
			})
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("workers=%d: error = %v, want ErrBadConfig", workers, err)
		}
		if len(got) != 5 {
			t.Errorf("workers=%d: emitted %v, want exactly indices 0..4", workers, got)
		}
	}

	sentinel := errors.New("emit says stop")
	err := SweepStream(12, 4, func(i int) (*Result, error) { return Run(sweepMatrix()[i]) },
		func(i int, _ *Result) error {
			if i == 3 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Errorf("emit error not propagated: %v", err)
	}
}

// TestSweepStreamConstantMemory: a 10k-seed streaming sweep of traced runs
// (each result retains its full event trace, tens of kilobytes) must hold
// only the reorder window alive — live heap stays flat where buffering all
// results would grow past it by an order of magnitude.
func TestSweepStreamConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-run sweep")
	}
	const runs = 10_000
	cfg := Config{
		N: 4, F: 1, Byzantine: -1,
		Protocol: ProtocolBracha, Coin: CoinIdeal,
		Adversary: AdvNone, Scheduler: SchedUniform,
		Inputs: InputUnanimous1,
		Trace:  true, // make every retained result expensive
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// Allow the window's worth of traced results plus slack; buffering 10k
	// traced results costs hundreds of megabytes and fails this bound.
	limit := before.HeapAlloc + 64<<20

	emitted := 0
	err := SweepStream(runs, 4, func(i int) (*Result, error) {
		c := cfg
		c.Seed = int64(i + 1)
		return Run(c)
	}, func(i int, res *Result) error {
		if res.Recorder == nil || len(res.Recorder.Events()) == 0 {
			return fmt.Errorf("run %d: missing trace", i)
		}
		emitted++
		if emitted%1000 == 0 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > limit {
				return fmt.Errorf("after %d runs: live heap %d MiB exceeds bound %d MiB — results are accumulating",
					emitted, ms.HeapAlloc>>20, limit>>20)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != runs {
		t.Fatalf("emitted %d of %d", emitted, runs)
	}
}

// TestSweepStreamEmptyAndTiny: degenerate sizes work.
func TestSweepStreamEmptyAndTiny(t *testing.T) {
	if err := SweepStream[*Result](0, 8, nil, nil); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := SweepStream(1, 8, func(int) (*Result, error) { return Run(sweepMatrix()[0]) },
		func(i int, res *Result) error {
			calls++
			if res == nil {
				t.Error("nil result")
			}
			return nil
		})
	if err != nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

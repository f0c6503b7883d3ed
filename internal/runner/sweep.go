package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep executes run on every configuration concurrently across a worker
// pool and returns the results in input order — Sweep(cfgs, workers, Run)
// for consensus runs, RunRBC for broadcast ones. workers <= 0 means
// GOMAXPROCS.
//
// Each run owns its simulator, RNG, and nodes outright (the sim package's
// determinism contract), so runs share no mutable state and the output is a
// pure function of cfgs: results are keyed by input index, never by
// completion order, making Sweep's output bitwise independent of the worker
// count, GOMAXPROCS, and goroutine scheduling. If any run fails, the error
// of the lowest-index failing configuration is returned (again independent
// of scheduling); results are discarded on error.
func Sweep[C, R any](cfgs []C, workers int, run func(C) (*R, error)) ([]*R, error) {
	results := make([]*R, len(cfgs))
	err := parallelFor(len(cfgs), workers, func(i int) (err error) {
		results[i], err = run(cfgs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SweepSeeds runs one configuration across many seeds — the multi-seed
// repetition pattern of every experiment — returning per-seed results in
// seed order.
func SweepSeeds(cfg Config, seeds []int64, workers int) ([]*Result, error) {
	cfgs := make([]Config, len(seeds))
	for i, s := range seeds {
		cfgs[i] = cfg
		cfgs[i].Seed = s
	}
	return Sweep(cfgs, workers, Run)
}

// parallelFor applies fn to every index in [0, n) using a pool of worker
// goroutines pulling indices from a shared atomic counter. Errors are
// recorded per index and the lowest-index error wins, so the returned error
// does not depend on which worker ran what.
func parallelFor(n, workers int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
				// A run never blocks, so without this a busy worker reaches
				// the scheduler only when sysmon preempts it, every 10 ms —
				// and with every P busy that is the only time the GC's
				// fractional mark workers run. A mark phase stretched to
				// 10+ ms lets the heap triple past its goal (measured: 800
				// n=7 runs on 2 workers peak at 20–24 MiB resident without
				// the yield, 11 MiB with it).
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

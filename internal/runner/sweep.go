package runner

// Sweep executes run on every configuration concurrently across a worker
// pool and returns the results in input order — Sweep(cfgs, workers, Run)
// for consensus runs, RunRBC for broadcast ones. workers <= 0 means
// GOMAXPROCS. It is SweepStream emitting into a results slice.
//
// Each run owns its simulator, RNG, and nodes while it runs (the sim
// package's determinism contract), so runs share no mutable state and the
// output is a pure function of cfgs: results are keyed by input index, never
// by completion order, making Sweep's output bitwise independent of the
// worker count, GOMAXPROCS, and goroutine scheduling. If any run fails, the
// error of the lowest-index failing configuration is returned (again
// independent of scheduling); results are discarded on error.
func Sweep[C, R any](cfgs []C, workers int, run func(C) (*R, error)) ([]*R, error) {
	results := make([]*R, len(cfgs))
	err := SweepStream(len(cfgs), workers,
		func(i int) (*R, error) { return run(cfgs[i]) },
		func(i int, r *R) error { results[i] = r; return nil })
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SweepSeeds runs one configuration across many seeds — the multi-seed
// repetition pattern of every experiment — returning per-seed results in
// seed order. It is Run seed by seed, except that a worker builds the
// configuration's cluster once and re-arms it for each seed it takes: the
// network, the coin dealer and endpoints, the correct nodes and the
// Byzantine ones. A re-armed cluster runs exactly what a new one would, so
// the results are Sweep's over the per-seed configs, bit for bit.
func SweepSeeds(cfg Config, seeds []int64, workers int) ([]*Result, error) {
	results := make([]*Result, len(seeds))
	err := sweepWorkers(len(seeds), workers, func() func(int) (*Result, error) {
		run := rearming(cfg)
		return func(i int) (*Result, error) { return run(seeds[i]) }
	}, func(i int, r *Result) error { results[i] = r; return nil })
	if err != nil {
		return nil, err
	}
	return results, nil
}

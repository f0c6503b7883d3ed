package runner

import "fmt"

// This file is the committed-entries throughput mode: a (batch, pipeline
// depth) grid over the replicated-log workload, each point sized to commit
// at least a target number of entries, run across the same index-keyed
// worker pool as Sweep so the full grid's output is bitwise independent of
// worker count. Every reported number is deterministic — entries, virtual
// end time, deliveries, digests — a pure function of (config, seed);
// wall-clock rates are the caller's business (cmd/bench measures them and
// keeps them out of the comparable JSON).

// EntriesPerKDeliveries returns committed entries per thousand deliveries —
// the deterministic throughput figure (deliveries are the simulator's unit
// of work, so this is the batch-efficiency ratio the experiment tables
// report).
func (r *SMRResult) EntriesPerKDeliveries() float64 {
	if r.Deliveries == 0 {
		return 0
	}
	return float64(r.Entries) * 1000 / float64(r.Deliveries)
}

// RunThroughput executes a (batch, depth) grid over base — its size, coin,
// checkpoint cadence, dissemination and seed — and returns one result per
// pair, batch-major in input order (empty axes = {1}). Each point commits at
// least entries (> 0) entries: its Config.Slots is ceil(entries/batch), and
// it preloads full batches. The LogDigest and StateDigest of a point are
// bitwise equal across worker counts and checkpoint cadences. workers sizes
// the pool (<= 0 = GOMAXPROCS); results are keyed by grid index, never
// completion order.
func RunThroughput(base SMRConfig, entries int, batches, depths []int, workers int) ([]*SMRResult, error) {
	// The grid sizes its workload by dividing by n: validate before any
	// point does.
	if _, err := validate(base.N, base.F, 0); err != nil {
		return nil, err
	}
	if entries <= 0 {
		return nil, fmt.Errorf("%w: throughput sweep needs entries > 0", ErrBadConfig)
	}
	if len(batches) == 0 {
		batches = []int{1}
	}
	if len(depths) == 0 {
		depths = []int{1}
	}
	for _, b := range batches {
		if b <= 0 {
			return nil, fmt.Errorf("%w: batch %d", ErrBadConfig, b)
		}
	}
	for _, d := range depths {
		if d <= 0 {
			return nil, fmt.Errorf("%w: pipeline depth %d", ErrBadConfig, d)
		}
	}

	grid := make([]SMRConfig, 0, len(batches)*len(depths))
	for _, b := range batches {
		for _, d := range depths {
			cfg := base
			cfg.Batch, cfg.Depth = b, d
			cfg.Slots = (entries + b - 1) / b
			// Preload full batches: each rotation member proposes at most
			// ceil(slots/n) turns, each consuming up to batch commands, so
			// this many commands per member keeps every disseminated batch
			// full (no noop padding diluting the entry count).
			cfg.Commands = (cfg.Slots + cfg.N - 1) / cfg.N * b
			grid = append(grid, cfg)
		}
	}

	return Sweep(grid, workers, func(cfg SMRConfig) (*SMRResult, error) {
		res, err := RunSMR(cfg)
		if err != nil {
			return nil, fmt.Errorf("throughput point batch=%d depth=%d: %w", cfg.Batch, cfg.Depth, err)
		}
		return res, nil
	})
}

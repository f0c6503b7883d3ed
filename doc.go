// Package repro reproduces Bracha's asynchronous Byzantine consensus
// (PODC 1984) as a production-quality Go library: reliable broadcast,
// message validation, randomized binary consensus with optimal resilience
// f < n/3, local and Rabin-style common coins, a deterministic
// discrete-event asynchronous network simulator with adversarial
// scheduling, Byzantine fault injection, the Ben-Or (1983) baseline, and a
// benchmark harness that regenerates every table and figure of the
// evaluation (see EXPERIMENTS.md).
//
// Start at internal/core (the consensus protocol), internal/rbc (reliable
// broadcast), and internal/runner (the experiment harness); their Example
// functions show the API in use.
//
// Performance architecture: the per-run delivery loop is allocation-free
// (tick-bucketed event queue, dense node table, recycled output slices,
// append-style wire codec — see internal/sim and internal/wire),
// and independent (config, seed) runs fan out across all cores through
// runner.Sweep. Both optimizations lean on one invariant, documented in
// internal/sim: a run is a pure function of (nodes, scheduler, seed), so
// executions replay byte for byte and sweep results are merged by input
// index, bitwise independent of worker count. The replay-equality tests in
// internal/runner enforce the invariant against golden trace hashes.
//
// Memory architecture: a node entering round r releases its per-round state
// below r−1 — accepted lists, terminal RBC instances (compacted to delivered
// records), validator dedup entries, coin state — and the cluster-shared
// dealer is pruned below the slowest node's round. ARCHITECTURE.md maps
// every retainer, its release trigger, its straggler path and its test.
package repro

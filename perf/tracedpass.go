package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
)

const (
	// kernelShare is the part of --seconds the kernels may spend, split
	// evenly between them.
	kernelShare = 0.25
	// maxMsgsRatioError is how far the bare cluster's msgs_per_op may sit
	// from the runner's before the ledger is not describing the workload.
	maxMsgsRatioError = 0.02
	// minPairs is the fewest untraced/traced pairs of the bare cluster.
	minPairs = 2
)

// tracedPass yields the per-layer ledger. Three instruments, all in the
// benchmark's own files: (a) the workload's cluster built bare and run in
// untraced/traced pairs, with spanNode around every node of the traced one;
// (b) the kernels; (c) one runner run with its Telemetry switch on. The
// runner run without telemetry is the reference for (a)'s harness cost and
// for the check that the bare cluster has the workload's shape.
func tracedPass(w workload, opt options) (*record, error) {
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	in, err := setUp(w, opt)
	if err != nil {
		return nil, err
	}
	rec := &record{result: result{Correct: true}}
	broken := func(format string, args ...any) {
		rec.Correct = false
		if rec.Why == "" {
			rec.Why = fmt.Sprintf(format, args...)
		}
	}
	m := metricSet{}

	// The runner's own run, telemetry off then on: the same sample both times.
	start := time.Now()
	ref, _, err := in.run(false)
	if err != nil {
		return nil, err
	}
	runnerWall := time.Since(start)
	rec.Attempted, rec.Failed = ref.Attempted, ref.Failed
	if ref.Failed > 0 {
		broken("%s", ref.Why)
	}
	withTele, tele, err := in.run(true)
	if err != nil {
		return nil, err
	}
	if withTele != ref {
		broken("the telemetry run is not the plain run: %+v != %+v", withTele, ref)
	}
	ops := float64(max(ref.Ops, 1))
	m.set("core.mean_rounds", ref.Rounds/ops)
	m.set("sim.dropped_per_kop", float64(ref.Dropped)*1000/ops)
	m.set("smr.recovery_ops", float64(ref.Recovery))
	telemetryMetrics(m, tele)

	if sweep, ok := in.(consensusInstance); ok && sweep.workers > 1 {
		if err := serialRunner(m, sweep, runnerWall); err != nil {
			return nil, err
		}
	}

	budget := time.Duration(opt.seconds * kernelShare / float64(len(kernels)) * float64(time.Second))
	for _, k := range kernels {
		v, err := k.run(budget)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		m.set(k.name, v)
	}

	acsTrace := newTracer("acs", 0)
	if _, err := acsBare(seedList(opt.seed, scaled(8, opt.scale, 1)), acsTrace); err != nil {
		return nil, fmt.Errorf("acs cluster: %w", err)
	}
	acsSum, _ := acsTrace.summarize()
	m.set("acs.deliver_ns", float64(acsSum.nodeDur)/float64(max(acsSum.deliveries(), 1)))

	layer := "core"
	if _, ok := in.(smrInstance); ok {
		layer = "smr"
	}
	pairs, err := barePairs(in, layer, deadline)
	if err != nil {
		return nil, err
	}
	if pairs.mismatch != "" {
		broken("%s", pairs.mismatch)
	}
	rec.Reps = len(pairs.bareNS)
	bare := pairs.bare
	sum, childTicks := pairs.last.summarize()
	if err := pairs.last.flush(w.name, sum, childTicks); err != nil {
		return nil, err
	}
	deliveries := float64(max(sum.deliveries(), 1))

	ratio := (float64(bare.messages) / float64(max(bare.ops, 1))) / (float64(ref.Messages) / ops)
	m.set("trace.msgs_per_op_ratio", ratio)
	if math.Abs(ratio-1) > maxMsgsRatioError {
		broken("bare cluster msgs_per_op is %.4f of the runner's, want within %.0f%%", ratio, 100*maxMsgsRatioError)
	}
	if int64(len(pairs.last.spans)) != bare.deliveries+sum.groups[groupStart].count {
		broken("%d spans for %d deliveries", len(pairs.last.spans), bare.deliveries)
	}
	m.set("trace.overhead_share", median(pairs.overhead))
	m.set("sim.loop_self_ns_per_delivery", float64(sum.loopSelf())/deliveries)
	bareNS := median(pairs.bareNS)
	m.set("sim.deliveries_per_s", 1e9/bareNS)
	if sweep, ok := in.(consensusInstance); !ok || sweep.workers == 1 {
		// Both sides on one goroutine, so the difference is the runner's own
		// per-delivery work (plus its set-up and harvest, amortised).
		m.set("runner.harness_ns_per_delivery", float64(runnerWall)/float64(max(ref.Deliveries, 1))-bareNS)
	}
	if layer == "smr" {
		for i, g := range smrGroups {
			tot := sum.groups[groupDissem+uint8(i)]
			m.set("smr.deliver_count."+g, float64(tot.count))
			if tot.count > 0 {
				m.set("smr.deliver_ns."+g, float64(tot.dur)/float64(tot.count))
			}
		}
		if sum.applies > 0 {
			m.set("smr.apply_ns", float64(sum.applyDur)/float64(sum.applies))
		}
		commitGaps(m, bare.commits)
	} else {
		m.set("core.deliver_ns", float64(sum.nodeDur-sum.groups[groupStart].dur)/deliveries)
		m.set("core.deliver_count", deliveries)
	}

	rec.Metrics = m.fill(perLayer)
	return rec, nil
}

// pairRuns is what the untraced/traced pairs of a bare cluster yield.
type pairRuns struct {
	bare     bareStats // the first untraced run, with every untraced run's commit marks
	bareNS   []float64 // per pair: the untraced run's ns per delivery
	overhead []float64 // per pair: (traced wall − untraced wall) ÷ untraced wall
	last     *tracer   // the last traced run's spans
	mismatch string    // how a traced run differed from its untraced twin, if one did
}

// barePairs runs the workload's bare cluster untraced, then traced, until the
// deadline (at least minPairs times). Both runs of a pair are the same
// execution, so their difference in wall time is what tracing costs.
func barePairs(in instance, layer string, deadline time.Time) (pairRuns, error) {
	var p pairRuns
	for pair := 0; pair < minPairs || time.Now().Before(deadline); pair++ {
		runtime.GC()
		st, err := in.bare(nil)
		if err != nil {
			return p, fmt.Errorf("bare cluster: %w", err)
		}
		if pair == 0 {
			p.bare = st
		} else {
			p.bare.commits = append(p.bare.commits, st.commits...)
		}
		p.last = nil // release the previous pair's spans before allocating the next
		runtime.GC()
		p.last = newTracer(layer, st.deliveries)
		traced, err := in.bare(p.last)
		if err != nil {
			return p, fmt.Errorf("traced cluster: %w", err)
		}
		if p.mismatch == "" && (traced.deliveries != st.deliveries || traced.messages != st.messages || traced.ops != st.ops) {
			p.mismatch = fmt.Sprintf("the traced cluster is not the untraced one: %d/%d/%d deliveries/messages/ops, untraced %d/%d/%d",
				traced.deliveries, traced.messages, traced.ops, st.deliveries, st.messages, st.ops)
		}
		p.bareNS = append(p.bareNS, float64(st.wall)/float64(st.deliveries))
		p.overhead = append(p.overhead, float64(traced.wall-st.wall)/float64(st.wall))
	}
	return p, nil
}

// commitGaps reports the gap between replica 1's consecutive slot commits,
// in sim ticks and in wall time, over every untraced bare run of the pass.
// The upper percentile is p90: the highest with ten samples beyond it at the
// ~250 gaps a pass collects.
func commitGaps(m metricSet, commits []commitMark) {
	var ticks, us []float64
	for i := 1; i < len(commits); i++ {
		if commits[i].at < commits[i-1].at {
			continue // the first commit of the next run
		}
		ticks = append(ticks, float64(commits[i].tick-commits[i-1].tick))
		us = append(us, float64(commits[i].at-commits[i-1].at)/1e3)
	}
	m.set("smr.slot_commit_samples", float64(len(ticks)))
	m.set("smr.slot_commit_ticks_p50", median(ticks))
	m.set("smr.slot_commit_ticks_p90", quantile(ticks, 0.90))
	m.set("smr.slot_commit_us_p50", median(us))
	m.set("smr.slot_commit_us_p90", quantile(us, 0.90))
}

// telemetryMetrics reads instrument (c): the sim-time phase histograms
// (log2 buckets, so a quantile is its bucket's upper bound) and each payload
// kind's share of the wire bytes.
func telemetryMetrics(m metricSet, tele *sim.Telemetry) {
	for _, p := range []struct {
		name  string
		phase sim.Phase
		q     float64
	}{
		{"rbc.deliver_ticks_p50", sim.PhaseRBCDeliver, 0.50},
		{"rbc.deliver_ticks_p99", sim.PhaseRBCDeliver, 0.99},
		{"core.decide_ticks_p50", sim.PhaseRoundDecide, 0.50},
		{"core.decide_ticks_p99", sim.PhaseRoundDecide, 0.99},
		{"ckpt.certify_ticks_p50", sim.PhaseCkptCertify, 0.50},
		{"ckpt.install_ticks_p50", sim.PhaseCkptInstall, 0.50},
	} {
		m.set(p.name, float64(tele.Phases[p.phase].Quantile(p.q)))
	}
	total := float64(max(tele.TotalBytes(), 1))
	for _, k := range wireShareKinds {
		m.set("wire.bytes_share."+k.name, float64(tele.Kinds[k.kind].Bytes)/total)
	}
}

// serialRunner is instrument (b) for the sweep: runner.Run called seed by
// seed on one goroutine, each call timed, against the SweepSeeds pass at two
// workers that took sweepWall.
func serialRunner(m metricSet, in consensusInstance, sweepWall time.Duration) error {
	var before, after runtime.MemStats
	us := make([]float64, 0, len(in.seeds))
	cfg := in.cfg
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for _, seed := range in.seeds {
		cfg.Seed = seed
		start := time.Now()
		if _, err := runner.Run(cfg); err != nil {
			return err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	serialWall := time.Since(begin)
	runtime.ReadMemStats(&after)
	m.set("runner.run_us_p50", median(us))
	// p95: the highest percentile with ten samples beyond it at 800 runs.
	m.set("runner.run_us_p95", quantile(us, 0.95))
	m.set("runner.allocs_per_run", float64(after.Mallocs-before.Mallocs)/float64(len(in.seeds)))
	m.set("runner.sweep_speedup_w2", float64(serialWall)/float64(sweepWall))
	return nil
}

package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/types"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatches holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the baseline by which an end-to-end metric may
	// worsen before it counts as a regression (per-layer metrics have none).
	bound float64
	// simulated metrics are pure functions of (workload, seed, scale):
	// -compare judges them with ==, and measure checks that they repeat.
	simulated bool
}

// endToEnd is what a user of the system sees: how fast a replicated-log run
// or a seed sweep finishes on this host, and what the protocol costs per op.
// An op is a committed log entry on smr_* workloads and one decided
// consensus run on the other two. The bounds on simulated metrics only
// matter across different seeds; at equal seeds they compare exactly.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "op/s", better: "higher", bound: 0.18},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_kdelivery", unit: "allocs", better: "lower", bound: 0.03},
	{name: "alloc_kb_per_kdelivery", unit: "KiB", better: "lower", bound: 0.03},
	{name: "mem_rss_peak_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "msgs_per_op", unit: "msgs", better: "lower", bound: 0.05, simulated: true},
	{name: "wire_kb_per_op", unit: "KiB", better: "lower", bound: 0.05, simulated: true},
	{name: "sim_ticks_per_op", unit: "ticks", better: "lower", bound: 0.05, simulated: true},
	{name: "deliveries_per_op", unit: "count", better: "lower", bound: 0.05, simulated: true},
}

// smrGroups are the payload-kind groups a replica's deliveries fall into:
// every span group but groupStart, in the order of the group constants.
var smrGroups = groupNames[groupDissem:]

// wireShareKinds are the payload kinds whose share of the wire bytes the
// telemetry run reports (between them they carry > 99 % on every workload).
var wireShareKinds = []struct {
	name string
	kind types.Kind
}{
	{"rbc_send", types.KindRBCSend},
	{"rbc_echo", types.KindRBCEcho},
	{"rbc_ready", types.KindRBCReady},
	{"rbc_frag", types.KindRBCFrag},
	{"coin", types.KindCoinShare},
	{"ckpt_cert", types.KindCkptCert},
}

// perLayer is the ledger of the traced pass. Every name is reported on every
// workload; a metric whose layer the workload never enters reads 0 (README.md
// says which those are). Instrument (a) is spanNode, (b) the kernels, (c) the
// runner's Telemetry switch.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// (a) spans around the nodes of a benchmark-built cluster.
		{name: "sim.loop_self_ns_per_delivery", unit: "ns", better: "lower"},
		{name: "sim.deliveries_per_s", unit: "1/s", better: "higher"},
	}
	for _, g := range smrGroups {
		defs = append(defs, metricDef{name: "smr.deliver_ns." + g, unit: "ns", better: "lower"})
	}
	for _, g := range smrGroups {
		defs = append(defs, metricDef{name: "smr.deliver_count." + g, unit: "count", better: "lower", simulated: true})
	}
	defs = append(defs,
		metricDef{name: "smr.apply_ns", unit: "ns", better: "lower"},
		metricDef{name: "smr.slot_commit_ticks_p50", unit: "ticks", better: "lower", simulated: true},
		metricDef{name: "smr.slot_commit_ticks_p90", unit: "ticks", better: "lower", simulated: true},
		metricDef{name: "smr.slot_commit_us_p50", unit: "us", better: "lower"},
		metricDef{name: "smr.slot_commit_us_p90", unit: "us", better: "lower"},
		metricDef{name: "smr.slot_commit_samples", unit: "count", better: "higher"},
		metricDef{name: "core.deliver_ns", unit: "ns", better: "lower"},
		metricDef{name: "core.deliver_count", unit: "count", better: "lower", simulated: true},
		metricDef{name: "acs.deliver_ns", unit: "ns", better: "lower"},
		metricDef{name: "runner.harness_ns_per_delivery", unit: "ns", better: "lower"},
		metricDef{name: "trace.overhead_share", unit: "ratio", better: "lower"},
		metricDef{name: "trace.msgs_per_op_ratio", unit: "ratio", better: "lower", simulated: true},
		// Simulated costs that are 0 on most workloads, so they cannot be
		// end-to-end metrics under the benchmark contract.
		metricDef{name: "core.mean_rounds", unit: "rounds", better: "lower", simulated: true},
		metricDef{name: "sim.dropped_per_kop", unit: "msgs", better: "lower", simulated: true},
		metricDef{name: "smr.recovery_ops", unit: "op", better: "higher", simulated: true},
		// (b) sweep_n7 only: the runner called serially, run by run.
		metricDef{name: "runner.run_us_p50", unit: "us", better: "lower"},
		metricDef{name: "runner.run_us_p95", unit: "us", better: "lower"},
		metricDef{name: "runner.allocs_per_run", unit: "allocs", better: "lower"},
		metricDef{name: "runner.sweep_speedup_w2", unit: "ratio", better: "higher"},
	)
	// (b) fixed-input kernels on one layer's exported functions.
	for _, k := range kernels {
		defs = append(defs, metricDef{name: k.name, unit: k.unit, better: k.better})
	}
	// (c) sim-time phase histograms and per-kind wire counters.
	defs = append(defs,
		metricDef{name: "rbc.deliver_ticks_p50", unit: "ticks", better: "lower", simulated: true},
		metricDef{name: "rbc.deliver_ticks_p99", unit: "ticks", better: "lower", simulated: true},
		metricDef{name: "core.decide_ticks_p50", unit: "ticks", better: "lower", simulated: true},
		metricDef{name: "core.decide_ticks_p99", unit: "ticks", better: "lower", simulated: true},
		metricDef{name: "ckpt.certify_ticks_p50", unit: "ticks", better: "lower", simulated: true},
		metricDef{name: "ckpt.install_ticks_p50", unit: "ticks", better: "lower", simulated: true},
	)
	for _, k := range wireShareKinds {
		defs = append(defs, metricDef{name: "wire.bytes_share." + k.name, unit: "ratio", better: "lower", simulated: true})
	}
	return defs
}()

// metricSet collects one run's values against a definition list.
type metricSet map[string]metricValue

// fill returns the values for defs in the contract's shape; a name that was
// never set reads 0 (a layer the workload does not enter).
func (s metricSet) fill(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := s[d.name]
		v.Unit = d.unit
		out[d.name] = v
	}
	return out
}

func (s metricSet) set(name string, v float64) { s[name] = metricValue{Value: v} }

// printTable prints every metric of defs by name and unit.
func printTable(w io.Writer, rec *record, defs []metricDef) {
	pass := "end-to-end"
	if rec.Trace {
		pass = "per-layer"
	}
	fmt.Fprintf(w, "== %s  %s  (%d repetitions, %d ops attempted, %d failed)\n", rec.Workload, pass, rec.Reps, rec.Attempted, rec.Failed)
	for _, d := range defs {
		kind := "host"
		if d.simulated {
			kind = "sim"
		}
		line := fmt.Sprintf("%-34s %16.6g %-6s %-4s", d.name, rec.Metrics[d.name].Value, d.unit, kind)
		if sp, ok := rec.Spread[d.name]; ok {
			line += fmt.Sprintf("  spread %.2f%%", 100*sp)
		}
		fmt.Fprintln(w, line)
	}
}

// median returns the middle of vs (the mean of the middle two for an even
// count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of vs by nearest rank.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	return s[min(max(int(q*float64(len(s))+0.5)-1, 0), len(s)-1)]
}

// spread is the distance between the first and third quartile of vs as a
// share of the median, with the quartiles Python's statistics.quantiles(vs,
// n=4) gives — the figure the benchmark's acceptance is judged by.
func spread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(vs)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	sp := (quartile(3) - quartile(1)) / med
	if sp < 0 {
		sp = -sp
	}
	return sp
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

package runner

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/types"
)

// This file is the scheduler zoo: the one place that knows how a
// SchedulerKind, its SchedParams and a driver's topology become a
// sim.Scheduler. Run, RunRBC and RunSMR all schedule through newScheduler,
// so every family runs at every layer.

// SchedulerKind selects message scheduling.
type SchedulerKind int

// Scheduler kinds.
const (
	SchedUniform      SchedulerKind = iota + 1 // uniform random delays (fair async)
	SchedFIFO                                  // uniform + per-link FIFO
	SchedRushByz                               // uniform, Byzantine traffic rushed
	SchedPartition                             // uniform, cross-partition traffic delayed
	SchedReorder                               // adversarial newest-first reordering (+ rushed Byzantine)
	SchedSplitHeal                             // network split between correct halves, healed mid-run
	SchedRejoin                                // one correct process unreachable, rejoining mid-run
	SchedStraggler                             // one correct process runs rounds behind on a continuously lagged inbox
	SchedLossy                                 // lossy/duplicating/jittery links under ARQ (loss converts to delay)
	SchedTopology                              // ring topology: traffic relayed along the overlay, HopLag per hop
	SchedAdaptive                              // adaptive adversary: delay targeted at the decision frontier
	SchedAdaptiveRush                          // adaptive + traffic-triggered rush of Byzantine traffic at the victim
)

// Schedulers names the scheduler kinds, in declaration order.
var Schedulers = EnumTable[SchedulerKind]{"scheduler", []string{
	"uniform", "fifo", "rush-byz", "partition", "reorder", "split-heal",
	"rejoin", "straggler", "lossy", "topology", "adaptive", "adaptive-rush",
}}

// String implements fmt.Stringer.
func (s SchedulerKind) String() string { return Schedulers.String(s) }

// SchedParams parameterizes the scheduler zoo: every hardcoded timing of the
// adversarial schedule families, lifted into one searchable coordinate
// space. The zero value of every field means "the historical default", so a
// zero SchedParams reproduces the pre-parameterization schedules bitwise —
// the golden replay hashes pin this. internal/search walks this space
// hunting liveness cliffs; a point it finds can be pinned verbatim on a
// Scenario.
type SchedParams struct {
	HealTime     sim.Time `json:"healTime,omitempty"`     // SchedSplitHeal thaw time
	RejoinTime   sim.Time `json:"rejoinTime,omitempty"`   // SchedRejoin flood time
	ReorderSpan  sim.Time `json:"reorderSpan,omitempty"`  // SchedReorder window
	StragglerLag sim.Time `json:"stragglerLag,omitempty"` // SchedStraggler inbound lag
	PartitionLag sim.Time `json:"partitionLag,omitempty"` // SchedPartition cross-link lag

	LossPct       int      `json:"lossPct,omitempty"`       // SchedLossy loss percent
	DupPct        int      `json:"dupPct,omitempty"`        // SchedLossy duplication percent
	RetransmitLag sim.Time `json:"retransmitLag,omitempty"` // SchedLossy per-loss delay

	TopoDegree int      `json:"topoDegree,omitempty"` // SchedTopology ring reach
	HopLag     sim.Time `json:"hopLag,omitempty"`     // SchedTopology per-hop delay

	TargetLag sim.Time `json:"targetLag,omitempty"` // SchedAdaptive* frontier delay
}

// schedAxes declares every SchedParams entry once: the axis name
// internal/search addresses it by, the historical default a zero field
// resolves to, and the field itself (a *sim.Time or an *int). Times are
// simulator ticks; base delays are 1..20, so a consensus round typically
// spans a few dozen ticks — the heal and the rejoin land several rounds into
// the run.
var schedAxes = []struct {
	name  string
	def   int64
	field func(*SchedParams) any
}{
	{"heal-time", 240, func(p *SchedParams) any { return &p.HealTime }},
	{"rejoin-time", 300, func(p *SchedParams) any { return &p.RejoinTime }},
	{"reorder-span", 48, func(p *SchedParams) any { return &p.ReorderSpan }},
	{"straggler-lag", 300, func(p *SchedParams) any { return &p.StragglerLag }},
	{"partition-lag", 500, func(p *SchedParams) any { return &p.PartitionLag }},
	{"loss-pct", 20, func(p *SchedParams) any { return &p.LossPct }},
	{"dup-pct", 10, func(p *SchedParams) any { return &p.DupPct }},
	{"retransmit-lag", 40, func(p *SchedParams) any { return &p.RetransmitLag }},
	{"topo-degree", 2, func(p *SchedParams) any { return &p.TopoDegree }},
	{"hop-lag", 12, func(p *SchedParams) any { return &p.HopLag }},
	{"target-lag", 120, func(p *SchedParams) any { return &p.TargetLag }},
}

// axisValue reads, and setAxis writes, a schedAxes field pointer.
func axisValue(field any) int64 {
	if t, ok := field.(*sim.Time); ok {
		return int64(*t)
	}
	return int64(*field.(*int))
}

func setAxis(field any, v int64) {
	if t, ok := field.(*sim.Time); ok {
		*t = sim.Time(v)
	} else {
		*field.(*int) = int(v)
	}
}

// Set assigns the parameter a search axis names.
func (p *SchedParams) Set(axis string, v int64) error {
	for _, a := range schedAxes {
		if a.name == axis {
			setAxis(a.field(p), v)
			return nil
		}
	}
	return fmt.Errorf("%w: unknown schedule parameter %q", ErrBadConfig, axis)
}

// withDefaults resolves zero fields to the historical defaults.
func (p SchedParams) withDefaults() SchedParams {
	for _, a := range schedAxes {
		if f := a.field(&p); axisValue(f) == 0 {
			setAxis(f, a.def)
		}
	}
	return p
}

// schedTopology is what a scheduler family needs to know about the cluster
// it schedules — plain data the driver supplies; the zoo itself never looks
// at a config. A family reads only the entries it uses.
type schedTopology struct {
	n      int               // system size (the SchedTopology ring)
	rushed []types.ProcessID // senders whose traffic arrives first wherever a family rushes
	// groupA and groupB are the two sides SchedPartition slows traffic
	// between and SchedSplitHeal freezes it between.
	groupA, groupB []types.ProcessID
	lagged         [][2]types.ProcessID // the links SchedStraggler slows
	held           types.ProcessID      // the process SchedRejoin cuts off until RejoinTime
}

// newScheduler builds the scheduler of one run: the family, its parameters
// (zero fields = historical defaults) and the driver's topology.
func newScheduler(kind SchedulerKind, params SchedParams, top schedTopology) sim.Scheduler {
	sp := params.withDefaults()
	uniform := sim.UniformDelay{Min: 1, Max: 20}
	// compose applies rules over a base and then rushes the rushed senders'
	// traffic (the strongest position for the adversary's own messages).
	compose := func(base sim.Scheduler, rules ...sim.Rule) sim.Scheduler {
		if len(top.rushed) > 0 {
			rules = append(rules, sim.RushFrom(top.rushed...))
		}
		if len(rules) == 0 {
			return base
		}
		return sim.Compose{Base: base, Rules: rules}
	}
	switch kind {
	case SchedFIFO:
		return sim.NewFIFODelay(1, 20)
	case SchedRushByz:
		return compose(uniform)
	case SchedPartition:
		var links [][2]types.ProcessID
		for _, a := range top.groupA {
			for _, b := range top.groupB {
				links = append(links, [2]types.ProcessID{a, b}, [2]types.ProcessID{b, a})
			}
		}
		return compose(uniform, sim.DelayLinks(sp.PartitionLag, links...))
	case SchedReorder:
		return compose(sim.ReorderDelay{Span: sp.ReorderSpan})
	case SchedSplitHeal:
		return compose(uniform, sim.HealPartition(sp.HealTime, top.groupA, top.groupB))
	case SchedLossy:
		return compose(sim.LossyDelay{
			Base:          uniform,
			LossPct:       sp.LossPct,
			DupPct:        sp.DupPct,
			RetransmitLag: sp.RetransmitLag,
		})
	case SchedTopology:
		return compose(sim.TopologyDelay{Base: uniform, N: top.n, Degree: sp.TopoDegree, HopLag: sp.HopLag})
	case SchedAdaptive, SchedAdaptiveRush:
		return sim.NewAdaptive(uniform, sp.TargetLag, kind == SchedAdaptiveRush, top.rushed)
	case SchedRejoin:
		// The held process is unreachable until the rejoin time, then
		// flooded with everything it missed. Rules apply in order, so the
		// rush must come first — otherwise it would override the hold for
		// rushed traffic and pierce the outage (rushed messages instead land
		// at exactly the rejoin time).
		hold := sim.HoldUntil(sp.RejoinTime, top.held)
		if len(top.rushed) > 0 {
			return sim.Compose{Base: uniform, Rules: []sim.Rule{sim.RushFrom(top.rushed...), hold}}
		}
		return sim.Compose{Base: uniform, Rules: []sim.Rule{hold}}
	case SchedStraggler:
		// Every lagged link carries a constant extra delay worth several
		// rounds, so the straggler processes the protocol a fixed distance
		// behind everyone else for the whole run. In a consensus run only
		// its inbound links lag (see Run): combined with a spare fault slot
		// (the pack's quorums never need the straggler) and the non-halting
		// formulation (the decided pack keeps starting rounds until the
		// straggler decides too), the pack stays rounds ahead — and every
		// message the straggler emits travels normally and reaches peers
		// that pruned its round long ago, exercising the late-drop path
		// continuously.
		return compose(uniform, sim.DelayLinks(sp.StragglerLag, top.lagged...))
	default: // SchedUniform and zero value
		return uniform
	}
}

package runner

import (
	"fmt"

	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// This file is the cluster assembly Run, RunRBC and RunSMR share: the first
// validation step, the simulator with its sinks and wire sizer, and the run
// itself. A driver adds what only it knows — its nodes, its topology, its
// stop predicate and its result.

// SimStats is the simulator's account of a run, embedded in every result.
type SimStats struct {
	// Messages sent, Deliveries made, and the EndTime of the last delivery.
	Messages   int
	Deliveries int
	EndTime    sim.Time
	// WireBytes is the wire.MessageSize total over every sent message — the
	// run's bandwidth under the real codec, measured without encoding.
	WireBytes int64
	// Dropped counts messages the scheduler dropped, those to a process that
	// never ran (silent from the start; counted when sent) and those that
	// expired when their destination finished; Spoofed counts sends rejected
	// for a forged From (see sim.Stats).
	Dropped int
	Spoofed int
	// Telemetry holds the telemetry sink when the config's Telemetry was set.
	Telemetry *sim.Telemetry
}

// validate is every driver's first step: the quorum arithmetic of (n, f)
// and how many of the n processes are faulty or absent from the start.
func validate(n, f, faulty int) (quorum.Spec, error) {
	spec, err := quorum.New(n, f)
	if err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if faulty < 0 || faulty >= n {
		return spec, fmt.Errorf("%w: %d faulty of %d processes", ErrBadConfig, faulty, n)
	}
	return spec, nil
}

// cluster is one assembled run: the network plus the sinks its config asked
// for (nil when off), which the driver hands to the nodes it builds.
type cluster struct {
	net  *sim.Network
	rec  *trace.Recorder
	tele *sim.Telemetry
}

// newCluster builds the simulator of one run.
func newCluster(sched sim.Scheduler, seed int64, maxDeliveries int, traced, telemetry bool) (*cluster, error) {
	c := &cluster{}
	if err := c.arm(sched, seed, maxDeliveries, traced, telemetry); err != nil {
		return nil, err
	}
	return c, nil
}

// arm readies the simulator for a run with its own scheduler and its own
// sinks: the first arm builds the network, and later ones re-arm it in place
// (sim.Network.Reset) with the members an earlier run registered.
func (c *cluster) arm(sched sim.Scheduler, seed int64, maxDeliveries int, traced, telemetry bool) error {
	c.rec, c.tele = nil, nil
	if traced {
		c.rec = trace.New(0)
	}
	if telemetry {
		c.tele = sim.NewTelemetry()
	}
	cfg := sim.Config{
		Scheduler:     sched,
		Seed:          seed,
		MaxDeliveries: maxDeliveries,
		Recorder:      c.rec,
		Telemetry:     c.tele,
		Sizer:         wire.MessageSize,
	}
	if c.net != nil {
		return c.net.Reset(cfg)
	}
	var err error
	c.net, err = sim.New(cfg)
	return err
}

// run registers the members in order (the order they start in; a re-armed
// cluster has its members already and passes none) and pumps the network
// until stop reports true (nil = until quiescence) or the delivery budget
// runs out, which it reports as exhausted.
func (c *cluster) run(members []sim.Node, stop func() bool) (stats SimStats, exhausted bool, err error) {
	for _, m := range members {
		if err := c.net.Add(m); err != nil {
			return SimStats{}, false, err
		}
	}
	s, err := c.net.Run(stop)
	if err != nil {
		return SimStats{}, false, err
	}
	return SimStats{
		Messages:   s.Sent,
		Deliveries: s.Delivered,
		EndTime:    s.End,
		WireBytes:  s.Bytes,
		Dropped:    s.Dropped,
		Spoofed:    s.Spoofed,
		Telemetry:  c.tele,
	}, s.Exhausted, nil
}

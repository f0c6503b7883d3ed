package adversary

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/types"
)

// CrashAfter runs the real protocol correctly and then crashes after a
// fixed number of deliveries — the classic mid-protocol crash. It is
// strictly nastier than Silent: its partial traffic is already woven into
// other processes' quorums when it stops, so thresholds must be robust to a
// participant vanishing between steps (and even mid-broadcast: some peers
// got its ECHO, others never will).
type CrashAfter struct {
	inner  *core.Node
	budget int
	dead   bool
}

// NewCrashAfter builds a node that behaves correctly for `deliveries`
// incoming messages and then crashes.
func NewCrashAfter(cfg core.Config, deliveries int) (*CrashAfter, error) {
	n, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("adversary: crash-after: %w", err)
	}
	return &CrashAfter{inner: n, budget: deliveries}, nil
}

var (
	_ sim.Node     = (*CrashAfter)(nil)
	_ sim.Recycler = (*CrashAfter)(nil)
)

// ID implements sim.Node.
func (c *CrashAfter) ID() types.ProcessID { return c.inner.ID() }

// Start implements sim.Node.
func (c *CrashAfter) Start() []types.Message {
	if c.budget <= 0 {
		c.dead = true
		return nil
	}
	return c.inner.Start()
}

// Deliver implements sim.Node.
func (c *CrashAfter) Deliver(m types.Message) []types.Message {
	if c.dead {
		return nil
	}
	c.budget--
	out := c.inner.Deliver(m)
	if c.budget <= 0 {
		c.dead = true
		// The crash may land mid-output: deliver only a prefix, modelling
		// a process dying halfway through its send loop.
		if len(out) > 1 {
			out = out[:len(out)/2]
		}
	}
	return out
}

// Done implements sim.Node: a crashed process is not "done" (done nodes
// have finished successfully); it is simply unresponsive.
func (c *CrashAfter) Done() bool { return false }

// Recycle implements sim.Recycler by handing buffers back to the inner node:
// the crash only truncates the inner node's slice and keeps no reference.
func (c *CrashAfter) Recycle(msgs []types.Message) { c.inner.Recycle(msgs) }

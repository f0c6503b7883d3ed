package rbc

import "repro/internal/types"

// Delivered reports whether the given instance has delivered at this
// process. Compaction preserves the answer: a pruned instance was delivered
// by definition.
func (b *Broadcaster) Delivered(id types.InstanceID) bool {
	if in, _ := b.lookup(id); in != nil && in.delivered {
		return true
	}
	return b.recorded(id)
}

// Delivered reports whether the instance delivered at this process.
func (c *Consistent) Delivered(id types.InstanceID) bool {
	in, ok := c.instances[id]
	return ok && in.delivered
}

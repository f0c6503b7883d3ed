package sim

import (
	"math/rand"

	"repro/internal/types"
)

// Immediate delivers everything with zero delay in send order — useful for
// unit tests that want synchronous, predictable executions.
type Immediate struct{}

// Deliver implements Scheduler.
func (Immediate) Deliver(_ types.Message, now Time, _ uint64, _ *rand.Rand) Time { return now }

// DropLinks returns a Rule dropping all traffic on the given links. Dropping
// correct-to-correct traffic violates the asynchronous model's eventual
// delivery; use only in failure-injection tests (the point is to watch the
// checkers catch the resulting liveness loss).
func DropLinks(links ...[2]types.ProcessID) Rule {
	set := make(map[link]bool, len(links))
	for _, l := range links {
		set[link{from: l[0], to: l[1]}] = true
	}
	return func(m types.Message, at, _ Time) Time {
		if set[link{from: m.From, to: m.To}] {
			return Drop
		}
		return at
	}
}

// DropFrom returns a Rule dropping every message sent by the given processes
// (simulates a crash of those senders at time zero when applied from the
// start).
func DropFrom(ps ...types.ProcessID) Rule {
	set := make(map[types.ProcessID]bool, len(ps))
	for _, p := range ps {
		set[p] = true
	}
	return func(m types.Message, at, _ Time) Time {
		if set[m.From] {
			return Drop
		}
		return at
	}
}

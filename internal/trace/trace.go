// Package trace records structured execution events. The simulator and the
// protocol nodes emit events into a Recorder; tests and the invariant
// checkers (internal/check) read them back to verify what actually happened,
// and `bench run -trace` dumps them for debugging a single run.
//
// The zero Recorder is disabled (records nothing, costs two branches), so
// benchmark runs pay nothing for tracing.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/types"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KindSend    Kind = iota + 1 // a message was handed to the network
	KindDeliver                 // a message was delivered to a process
	KindDecide                  // a process decided a value
	KindHalt                    // a process halted
	KindRound                   // a process advanced to a round
	KindCoin                    // a process obtained a coin value for a round
	KindRBC                     // a reliable-broadcast instance delivered at a process
	KindDrop                    // the network dropped a message (failure injection / spoof)
	KindNote                    // free-form annotation
)

// kindNames is a dense array, not a map: Kind.String() on the hot rendering
// paths (Dump folds it per event, JSONL export per line) is a bounds check
// and an index, never a map probe or an allocation.
var kindNames = [...]string{
	KindSend:    "SEND",
	KindDeliver: "DELIVER",
	KindDecide:  "DECIDE",
	KindHalt:    "HALT",
	KindRound:   "ROUND",
	KindCoin:    "COIN",
	KindRBC:     "RBC",
	KindDrop:    "DROP",
	KindNote:    "NOTE",
}

// kindUnknown is the stable rendering of any out-of-range Kind: one constant
// string for every unknown value, so rendering never allocates and corrupt
// kinds cannot smuggle variable bytes into a dump.
const kindUnknown = "KIND(?)"

// String implements fmt.Stringer. Alloc-free for every input.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		if s := kindNames[k]; s != "" {
			return s
		}
	}
	return kindUnknown
}

// Event is one recorded occurrence. Fields beyond Kind, Time and P are
// populated per kind: Msg for SEND/DELIVER/DROP, V for DECIDE/COIN, Round for
// ROUND/COIN, Note for NOTE and DROP reasons.
//
// Seq and Parent carry the causal structure (see internal/obs): Seq is the
// wire sequence number of the message a SEND/DELIVER/DROP event concerns,
// and Parent is the wire sequence of the delivery whose handler recorded the
// event — the delivered message that *triggered* it (0 for events recorded
// during Start or outside a handler). Both are deliberately absent from
// String(), so the golden replay hashes over Dump() are unchanged by their
// introduction.
type Event struct {
	Time   int64
	Kind   Kind
	P      types.ProcessID
	Msg    types.Message
	Round  int
	V      types.Value
	Note   string
	Seq    uint64
	Parent uint64
}

// String implements fmt.Stringer.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-6d %-8s %v", e.Time, e.Kind, e.P)
	switch e.Kind {
	case KindSend, KindDeliver, KindDrop:
		fmt.Fprintf(&b, " %v", e.Msg)
	case KindDecide:
		fmt.Fprintf(&b, " v=%v round=%d", e.V, e.Round)
	case KindCoin:
		fmt.Fprintf(&b, " v=%v round=%d", e.V, e.Round)
	case KindRound:
		fmt.Fprintf(&b, " round=%d", e.Round)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	return b.String()
}

// Recorder collects events. It is safe for concurrent use (every method
// holds its lock), so a recorder may be read from a goroutine other than the
// one running its simulation. The zero value is a disabled recorder; use New
// for an enabled one.
type Recorder struct {
	mu      sync.Mutex
	enabled bool
	limit   int
	// parent is the causal context: the wire seq of the delivery whose
	// handler is currently running (see SetParent). Stamped onto every
	// recorded event whose Parent is unset.
	parent uint64
	events []Event
}

// DefaultLimit bounds a Recorder's memory when no explicit limit is given.
const DefaultLimit = 1 << 20

// New returns an enabled Recorder holding at most limit events (DefaultLimit
// if limit ≤ 0); further events are discarded.
func New(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Recorder{enabled: true, limit: limit}
}

// Enabled reports whether r records events. A nil or zero Recorder is
// disabled.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Record stores the event if the recorder is enabled and under its limit.
// An event with no explicit Parent inherits the current causal context —
// protocol nodes record DECIDE/ROUND/RBC events with no knowledge of wire
// sequencing, and the context set by the driver links them to the delivery
// that triggered them.
func (r *Recorder) Record(e Event) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) >= r.limit {
		return
	}
	if e.Parent == 0 {
		e.Parent = r.parent
	}
	r.events = append(r.events, e)
}

// SetParent sets (seq ≠ 0) or clears (seq = 0) the causal context stamped
// onto subsequently recorded events. The simulator brackets every delivery
// dispatch with it; a driver that delivers from several goroutines at once
// should leave it unset.
func (r *Recorder) SetParent(seq uint64) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	r.parent = seq
	r.mu.Unlock()
}

// Events returns a copy of all stored events in record order.
func (r *Recorder) Events() []Event {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

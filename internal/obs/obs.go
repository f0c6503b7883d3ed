// Package obs analyzes recorded traces: it walks the causal parent links
// (trace.Event.Seq/Parent, stamped by the simulator) backward from each
// decision to recover the decision's critical path — the unique chain of
// message deliveries that actually triggered it — and attributes the
// decision time to wire latency and handler ("think") time, broken down by
// payload kind.
//
// The chain is exact, not heuristic: the simulator is single-threaded, so
// every event recorded while a delivery's handler runs is causally due to
// that delivery, and each event has exactly one parent. A decision at time T
// therefore decomposes as
//
//	T = Σ wire(hop) + Σ think(hop)
//
// over its chain: each hop's wire time is delivery time minus send time, and
// its think time is the gap between the previous hop's delivery and this
// hop's send (the handler work — quorum counting, validation — that led the
// process to emit it). The root hop's think time is its send time (emitted
// during Start at t = 0). That identity is pinned by the package tests.
//
// This is the longest causal chain by construction: any other causal
// ancestor path of the decision ends at a delivery that did NOT trip the
// deciding threshold — the quorum message that arrived last is the one on
// the recorded chain.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
	"repro/internal/types"
)

// Hop is one message on a decision's critical path, in causal order (the
// hop's message was sent because the previous hop's message was delivered).
type Hop struct {
	Seq         uint64          `json:"seq"`
	Kind        string          `json:"kind"`
	From        types.ProcessID `json:"from"`
	To          types.ProcessID `json:"to"`
	SentAt      int64           `json:"sent_at"`
	DeliveredAt int64           `json:"delivered_at"`
	Wire        int64           `json:"wire"`
	Think       int64           `json:"think"`
}

// KindShare is one payload kind's share of a critical path.
type KindShare struct {
	Kind  string `json:"kind"`
	Hops  int    `json:"hops"`
	Wire  int64  `json:"wire"`
	Think int64  `json:"think"`
}

// Decision is one process's decision and its reconstructed critical path.
type Decision struct {
	P     types.ProcessID `json:"p"`
	V     types.Value     `json:"v"`
	Round int             `json:"round"`
	At    int64           `json:"at"`
	Hops  int             `json:"hops"`
	Wire  int64           `json:"wire"`
	Think int64           `json:"think"`
	// Truncated reports that the walk stopped at a hop whose parent events
	// were not in the trace (recorder limit reached): Wire/Think then cover
	// only the recovered suffix and need not sum to At.
	Truncated bool        `json:"truncated,omitempty"`
	ByKind    []KindShare `json:"by_kind"`
	Path      []Hop       `json:"path"`
}

// Report is the critical-path analysis of one trace: the first decision of
// every deciding process, in process order.
type Report struct {
	Decisions []Decision `json:"decisions"`
}

// Analyze reconstructs the critical path of every first-per-process DECIDE
// event in the trace.
func Analyze(events []trace.Event) Report {
	sendBySeq := make(map[uint64]int)
	deliverBySeq := make(map[uint64]int)
	for i, e := range events {
		switch e.Kind {
		case trace.KindSend:
			if e.Seq != 0 {
				sendBySeq[e.Seq] = i
			}
		case trace.KindDeliver:
			if e.Seq != 0 {
				deliverBySeq[e.Seq] = i
			}
		}
	}

	// first[p] is 1 + the index of process p's first DECIDE event (0: none
	// yet). Processes are 1..n (quorum.Spec.CheckPeers), so walking first
	// in index order yields the decisions in process order.
	var first []int
	for i, e := range events {
		if e.Kind != trace.KindDecide || e.P < 1 {
			continue
		}
		if p := int(e.P); p >= len(first) {
			first = append(first, make([]int, p+1-len(first))...)
		}
		if first[e.P] == 0 {
			first[e.P] = i + 1
		}
	}
	var report Report
	for _, i := range first {
		if i > 0 {
			report.Decisions = append(report.Decisions, walk(events[i-1], events, sendBySeq, deliverBySeq))
		}
	}
	return report
}

// walk follows parent links from one decide event back to a Start-emitted
// root, building the hop chain in causal (root-first) order.
func walk(decide trace.Event, events []trace.Event, sendBySeq, deliverBySeq map[uint64]int) Decision {
	d := Decision{P: decide.P, V: decide.V, Round: decide.Round, At: decide.Time}
	// Protocol nodes are clockless — their DECIDE events carry Time 0. The
	// decision happened while its parent message's delivery handler ran, so
	// that delivery's network-stamped time IS the decision time.
	if di, ok := deliverBySeq[decide.Parent]; ok && events[di].Time > d.At {
		d.At = events[di].Time
	}
	// Collect decision-first, reverse at the end. Bounded by the event
	// count so a corrupt trace (seq cycle) cannot loop forever.
	var rev []Hop
	seq := decide.Parent
	for steps := 0; seq != 0 && steps <= len(events); steps++ {
		si, haveSend := sendBySeq[seq]
		di, haveDeliver := deliverBySeq[seq]
		if !haveSend || !haveDeliver {
			d.Truncated = true
			break
		}
		send, deliver := events[si], events[di]
		hop := Hop{
			Seq:         seq,
			Kind:        payloadKind(send.Msg),
			From:        send.Msg.From,
			To:          send.Msg.To,
			SentAt:      send.Time,
			DeliveredAt: deliver.Time,
			Wire:        deliver.Time - send.Time,
		}
		rev = append(rev, hop)
		seq = send.Parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	// Think time: gap between the previous hop's delivery (0 for the root)
	// and this hop's send.
	prevDelivered := int64(0)
	for i := range rev {
		rev[i].Think = rev[i].SentAt - prevDelivered
		prevDelivered = rev[i].DeliveredAt
	}
	d.Path = rev
	d.Hops = len(rev)
	shares := make(map[string]*KindShare)
	for _, h := range rev {
		d.Wire += h.Wire
		d.Think += h.Think
		s, ok := shares[h.Kind]
		if !ok {
			s = &KindShare{Kind: h.Kind}
			shares[h.Kind] = s
		}
		s.Hops++
		s.Wire += h.Wire
		s.Think += h.Think
	}
	// order-free: sorted by kind below
	for _, s := range shares {
		d.ByKind = append(d.ByKind, *s)
	}
	sort.Slice(d.ByKind, func(i, j int) bool { return d.ByKind[i].Kind < d.ByKind[j].Kind })
	return d
}

// payloadKind names a message's payload kind ("?" for a missing payload).
func payloadKind(m types.Message) string {
	if m.Payload == nil {
		return "?"
	}
	return m.Payload.Kind().String()
}

// Totals aggregates the per-decision kind shares across every decision —
// the per-kind critical-path attribution experiment E16 tabulates.
func (r Report) Totals() []KindShare {
	shares := make(map[string]*KindShare)
	for _, d := range r.Decisions {
		for _, ks := range d.ByKind {
			s, ok := shares[ks.Kind]
			if !ok {
				s = &KindShare{Kind: ks.Kind}
				shares[ks.Kind] = s
			}
			s.Hops += ks.Hops
			s.Wire += ks.Wire
			s.Think += ks.Think
		}
	}
	out := make([]KindShare, 0, len(shares))
	// order-free: sorted by kind below
	for _, s := range shares {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// MeanDecisionTime returns the mean decision time across decisions (0 with
// none).
func (r Report) MeanDecisionTime() float64 {
	if len(r.Decisions) == 0 {
		return 0
	}
	var sum int64
	for _, d := range r.Decisions {
		sum += d.At
	}
	return float64(sum) / float64(len(r.Decisions))
}

// String renders a compact human summary: one line per decision plus the
// aggregated kind attribution.
func (r Report) String() string {
	var b strings.Builder
	for _, d := range r.Decisions {
		trunc := ""
		if d.Truncated {
			trunc = " (truncated)"
		}
		fmt.Fprintf(&b, "%v decided %v in round %d at t=%d: %d hops, wire=%d think=%d%s\n",
			d.P, d.V, d.Round, d.At, d.Hops, d.Wire, d.Think, trunc)
	}
	if totals := r.Totals(); len(totals) > 0 {
		b.WriteString("critical-path attribution by kind:\n")
		for _, s := range totals {
			fmt.Fprintf(&b, "  %-10s hops=%-5d wire=%-8d think=%d\n", s.Kind, s.Hops, s.Wire, s.Think)
		}
	}
	return b.String()
}

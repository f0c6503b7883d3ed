package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/types"
)

// The tracer records spans from the benchmark's own files, around the calls
// the simulator makes into each node: nothing in internal/ knows it exists.
// The hierarchy is
//
//	sim.run                  one Network.Run call (parent -1)
//	  <layer>.deliver.<grp>  one Node.Deliver or Node.Start call
//	    smr.apply            one StateMachine.Apply call made by that Deliver
//
// and a span's self time is its duration minus its children's, so the self
// time of sim.run is what the event loop, queue, scheduler and Sizer cost.

// Span groups: the payload-kind family a delivery belongs to.
const (
	groupStart uint8 = iota // Node.Start
	groupDissem
	groupAgree
	groupCoin
	groupDecide
	groupCkpt
	groupCount
)

var groupNames = [groupCount]string{"start", "dissem", "agree", "coin", "decide", "ckpt"}

// seqNamespace is where the smr and acs layers put the Tag.Seq of their
// value-dissemination broadcasts; consensus instances sit below it.
const seqNamespace = 1 << 20

// groupOf classifies a delivery by its payload alone.
func groupOf(m types.Message) uint8 {
	seq := 0
	switch p := m.Payload.(type) {
	case *types.RBCPayload:
		seq = p.ID.Tag.Seq
	case *types.RBCFragPayload:
		seq = p.ID.Tag.Seq
	case *types.RBCSumPayload:
		seq = p.ID.Tag.Seq
	case *types.CoinSharePayload:
		return groupCoin
	case *types.DecidePayload:
		return groupDecide
	case *types.CkptVotePayload, *types.CkptRequestPayload, *types.CkptCertPayload:
		return groupCkpt
	}
	if seq >= seqNamespace {
		return groupDissem
	}
	return groupAgree
}

// span is one timed call into a node, in ticks of the tracer's clock (see
// cycles). 16 bytes, so a run's millions of deliveries stay in memory until
// the pass ends.
type span struct {
	start int64
	dur   uint32
	group uint8
	node  uint8
}

// childSpan is a call a node made back into benchmark-supplied code while
// inside the span with index parent.
type childSpan struct {
	parent int32
	start  int64
	dur    uint32
}

// runSpan is one Network.Run call; it parents spans [first, first+count).
type runSpan struct {
	start, dur   int64
	first, count int
}

type tracer struct {
	layer string // "smr", "core" or "acs": the layer the wrapped nodes belong to
	// The clock's origin on both scales, and — once summarize has run — the
	// length of a tick measured over everything in between.
	base      time.Time
	baseTicks int64
	nsPerTick float64

	runs  []runSpan
	spans []span
	kids  []childSpan
}

// newTracer sizes the span slab for the deliveries an untraced run of the
// same cluster made, so the traced run never grows it.
func newTracer(layer string, deliveries int64) *tracer {
	return &tracer{layer: layer, base: time.Now(), baseTicks: cycles(), spans: make([]span, 0, deliveries+deliveries/8+1024)}
}

func (t *tracer) now() int64 { return cycles() - t.baseTicks }

// ns converts a tick count to nanoseconds.
func (t *tracer) ns(ticks int64) int64 { return int64(float64(ticks) * t.nsPerTick) }

// timeRun records fn — a Network.Run call — as a sim.run span.
func (t *tracer) timeRun(fn func() error) error {
	first, start := len(t.spans), t.now()
	err := fn()
	t.runs = append(t.runs, runSpan{start: start, dur: t.now() - start, first: first, count: len(t.spans) - first})
	return err
}

// spanNode puts a span around every call the simulator makes into a node.
// It forwards Recycle, so the allocation-free delivery path is what is timed.
type spanNode struct {
	inner sim.Node
	rec   sim.Recycler // inner's Recycler, nil if it has none
	t     *tracer
}

var (
	_ sim.Node     = (*spanNode)(nil)
	_ sim.Recycler = (*spanNode)(nil)
)

// wrap returns node behind a spanNode, or node itself when t is nil (the
// untraced run of the same cluster).
func (t *tracer) wrap(node sim.Node) sim.Node {
	if t == nil {
		return node
	}
	rec, _ := node.(sim.Recycler)
	return &spanNode{inner: node, rec: rec, t: t}
}

func (s *spanNode) ID() types.ProcessID { return s.inner.ID() }
func (s *spanNode) Done() bool          { return s.inner.Done() }

func (s *spanNode) Start() []types.Message {
	start := s.t.now()
	out := s.inner.Start()
	s.t.add(start, groupStart, s.inner.ID())
	return out
}

func (s *spanNode) Deliver(m types.Message) []types.Message {
	start := s.t.now()
	out := s.inner.Deliver(m)
	s.t.add(start, groupOf(m), m.To)
	return out
}

func (s *spanNode) Recycle(msgs []types.Message) {
	if s.rec != nil {
		s.rec.Recycle(msgs)
	}
}

func (t *tracer) add(start int64, group uint8, node types.ProcessID) {
	t.spans = append(t.spans, span{start: start, dur: uint32(t.now() - start), group: group, node: uint8(node)})
}

// spanMachine is the state machine a traced replica drives: Apply becomes a
// child span of the Deliver that committed the command.
type spanMachine struct {
	*smr.KVMachine
	t *tracer
}

func (m spanMachine) Apply(cmd string) error {
	start := m.t.now()
	err := m.KVMachine.Apply(cmd)
	// The enclosing Deliver span is appended when it returns, so its index
	// is the current length.
	m.t.kids = append(m.t.kids, childSpan{parent: int32(len(m.t.spans)), start: start, dur: uint32(m.t.now() - start)})
	return err
}

// machine returns the state machine for one replica of a bare cluster.
func (t *tracer) machine(kv *smr.KVMachine) smr.StateMachine {
	if t == nil {
		return kv
	}
	return spanMachine{KVMachine: kv, t: t}
}

// groupTotals is one group's count and time (ns) over a traced pass.
type groupTotals struct {
	count     int64
	dur, self int64
}

// traceSummary is what the ledger reads off a traced pass.
type traceSummary struct {
	groups   [groupCount]groupTotals
	nodeDur  int64 // Σ node span durations
	runDur   int64 // Σ sim.run durations
	applies  int64
	applyDur int64
}

// loopSelf is sim.run's self time: the run minus its children.
func (s *traceSummary) loopSelf() int64 { return s.runDur - s.nodeDur }

func (s *traceSummary) deliveries() int64 {
	var n int64
	for g := groupStart + 1; g < groupCount; g++ {
		n += s.groups[g].count
	}
	return n
}

// summarize folds the spans into nanosecond totals; childDur[i] is the ticks
// span i's children cover.
func (t *tracer) summarize() (sum traceSummary, childDur map[int32]int64) {
	if t.nsPerTick == 0 {
		t.nsPerTick = float64(time.Since(t.base)) / float64(max(t.now(), 1))
	}
	childDur = make(map[int32]int64, len(t.kids))
	for _, k := range t.kids {
		childDur[k.parent] += int64(k.dur)
		sum.applies++
		sum.applyDur += int64(k.dur)
	}
	for i, sp := range t.spans {
		g := &sum.groups[sp.group]
		g.count++
		g.dur += int64(sp.dur)
		g.self += int64(sp.dur) - childDur[int32(i)]
		sum.nodeDur += int64(sp.dur)
	}
	for _, r := range t.runs {
		sum.runDur += r.dur
	}
	for g := range sum.groups {
		sum.groups[g].dur, sum.groups[g].self = t.ns(sum.groups[g].dur), t.ns(sum.groups[g].self)
	}
	sum.nodeDur, sum.runDur, sum.applyDur = t.ns(sum.nodeDur), t.ns(sum.runDur), t.ns(sum.applyDur)
	return sum, childDur
}

// maxSpansWritten caps the trace file: the head of the run span by span, and
// the whole run as per-group totals in the header line.
const maxSpansWritten = 20000

// traceLine is one line of a trace file.
type traceLine struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Node    int    `json:"node,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// flush writes the pass, with its summary, to outDir/trace-<workload>.jsonl:
// a header with the totals of every span recorded, then sim.run, node and
// child spans in start order, ids assigned in that order, up to
// maxSpansWritten node spans.
func (t *tracer) flush(workload string, sum traceSummary, childDur map[int32]int64) (err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)

	type groupLine struct {
		Count  int64 `json:"count"`
		DurNS  int64 `json:"dur_ns"`
		SelfNS int64 `json:"self_ns"`
	}
	header := struct {
		Workload      string               `json:"workload"`
		Runs          int                  `json:"runs"`
		SpansRecorded int                  `json:"spans_recorded"`
		SpansWritten  int                  `json:"spans_written"`
		RunNS         int64                `json:"run_ns"`
		LoopSelfNS    int64                `json:"loop_self_ns"`
		Groups        map[string]groupLine `json:"groups"`
	}{
		Workload: workload, Runs: len(t.runs), SpansRecorded: len(t.spans),
		SpansWritten: min(len(t.spans), maxSpansWritten),
		RunNS:        sum.runDur, LoopSelfNS: sum.loopSelf(),
		Groups: map[string]groupLine{},
	}
	for g, tot := range sum.groups {
		if tot.count > 0 {
			header.Groups[t.layer+".deliver."+groupNames[g]] = groupLine{tot.count, tot.dur, tot.self}
		}
	}
	if err := enc.Encode(header); err != nil {
		return err
	}

	id, kid := 0, 0
	for _, r := range t.runs {
		if r.first >= maxSpansWritten {
			break
		}
		runID := id
		id++
		var covered int64
		for _, sp := range t.spans[r.first : r.first+r.count] {
			covered += int64(sp.dur)
		}
		if err := enc.Encode(traceLine{ID: runID, Parent: -1, Name: "sim.run", StartNS: t.ns(r.start), DurNS: t.ns(r.dur), SelfNS: t.ns(r.dur - covered)}); err != nil {
			return err
		}
		for i := r.first; i < min(r.first+r.count, maxSpansWritten); i++ {
			sp := t.spans[i]
			// Children were appended before their parent: write them after it.
			for kid < len(t.kids) && int(t.kids[kid].parent) < i {
				kid++
			}
			firstKid := kid
			for kid < len(t.kids) && int(t.kids[kid].parent) == i {
				kid++
			}
			spanID := id
			id++
			if err := enc.Encode(traceLine{
				ID: spanID, Parent: runID, Name: t.layer + ".deliver." + groupNames[sp.group], Node: int(sp.node),
				StartNS: t.ns(sp.start), DurNS: t.ns(int64(sp.dur)), SelfNS: t.ns(int64(sp.dur) - childDur[int32(i)]),
			}); err != nil {
				return err
			}
			for _, k := range t.kids[firstKid:kid] {
				if err := enc.Encode(traceLine{ID: id, Parent: spanID, Name: "smr.apply", Node: int(sp.node), StartNS: t.ns(k.start), DurNS: t.ns(int64(k.dur)), SelfNS: t.ns(int64(k.dur))}); err != nil {
					return err
				}
				id++
			}
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

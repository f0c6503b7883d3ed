package smr

import (
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/rbc"
	"repro/internal/types"
	"repro/internal/wire"
)

// ordering is the ordering plane: it decides, slot by slot, which candidate
// commits. It owns the rotation's turns, the submit queue, the candidates
// disseminated for each slot, and the agreement engine.
type ordering struct {
	cfg *Config

	// values disseminates the candidates (one RBC instance per slot).
	values *rbc.Broadcaster

	slot int // the next undecided slot
	// bin is the agreement engine, built at the first slot that starts and
	// re-armed (core.Node.Reset) at every later one; armed reports whether
	// it is running the current slot's instance. pending buffers binary
	// traffic for slots not yet started, and spare is the emptied buffer of
	// the last slot that started, handed to the next slot that buffers
	// traffic.
	bin     *core.Node
	armed   bool
	cands   map[int]string
	pending map[int][]types.Message
	spare   []types.Message

	queue   []string
	dropped int // submissions rejected by the queue bound or after Done
	// proposed is the dissemination watermark: every own turn below it was
	// disseminated, or skipped by an install jump. It is the propose
	// horizon, which never decreases.
	proposed int
}

// done reports whether the replica committed its maxSlots slots.
func (o *ordering) done() bool {
	return o.cfg.maxSlots > 0 && o.slot >= o.cfg.maxSlots
}

// proposer returns the proposer of a slot.
func (o *ordering) proposer(slot int) types.ProcessID {
	return o.cfg.Rotation[slot%len(o.cfg.Rotation)]
}

// propose disseminates this replica's candidates for its not-yet-proposed
// turns within the pipeline horizon, appending into out. At Depth 1 that is
// exactly the current slot; at Depth > 1 dissemination runs ahead of the
// agreement frontier — the RBC for a turn in [slot, slot+Depth) proceeds
// while the current slot's agreement is still deciding — and every replica
// buffers the early candidates (cands) until agreement reaches them.
func (o *ordering) propose(out []types.Message) []types.Message {
	if o.done() {
		return out
	}
	horizon := o.slot + o.cfg.Depth
	if o.cfg.maxSlots > 0 {
		horizon = min(horizon, o.cfg.maxSlots)
	}
	for s := max(o.slot, o.proposed); s < horizon; s++ {
		if o.proposer(s) == o.cfg.Me {
			out = o.values.AppendBroadcast(out, types.Tag{Seq: dissemNS + s}, o.takeProposal())
		}
	}
	o.proposed = horizon
	return out
}

// proposalTake returns how many queued commands the next proposing turn
// consumes: 0 on an empty queue (the turn proposes a noop), 1 unbatched,
// and with batching up to Batch commands further capped by the batch wire
// bounds — but always at least one, so a queue can never wedge. It is the
// single consumption policy: takeProposal consumes through it when a turn
// actually disseminates, and jump mirrors it for the turns a state-transfer
// install skips, keeping "what would this turn have taken" identical on
// both paths.
func (o *ordering) proposalTake() int {
	if len(o.queue) == 0 {
		return 0
	}
	if o.cfg.Batch == 1 {
		return 1
	}
	b := min(o.cfg.Batch, len(o.queue), wire.MaxBatchCommands)
	total := 0
	for i := 0; i < b; i++ {
		total += len(o.queue[i])
		if total > wire.MaxBatchBytes && i > 0 {
			return i
		}
	}
	return b
}

// takeProposal pops the next proposal body off the submit queue: with
// batching off, one raw command — wire-identical to the pre-batching
// format, which is what keeps Batch<=1 runs bitwise equal to the goldens —
// and with Batch > 1 a canonical batch body bundling up to Batch commands.
// An empty queue yields the explicit Noop either way.
func (o *ordering) takeProposal() string {
	k := o.proposalTake()
	if k == 0 {
		return Noop
	}
	if o.cfg.Batch == 1 {
		cmd := o.queue[0]
		o.queue = o.queue[1:]
		return cmd
	}
	body, err := wire.EncodeBatch(o.queue[:k])
	if err != nil {
		// Unreachable: Submit bounds each command and proposalTake bounds
		// count and total, which is everything EncodeBatch checks.
		panic(fmt.Sprintf("smr: encoding %d-command batch: %v", k, err))
	}
	o.queue = o.queue[k:]
	return body
}

// onValues handles dissemination traffic and keeps each slot's first
// candidate from the slot's proposer.
func (o *ordering) onValues(out []types.Message, m types.Message) []types.Message {
	var deliveries []rbc.Delivery
	out, deliveries, _ = o.values.AppendHandlePayload(out, m.From, m.Payload)
	for _, d := range deliveries {
		slot := d.ID.Tag.Seq - dissemNS
		if slot < 0 || d.ID.Sender != o.proposer(slot) {
			continue // only the slot's proposer may fill it
		}
		if _, dup := o.cands[slot]; !dup {
			o.cands[slot] = d.Body
		}
	}
	return out
}

// onBinary hands binary instance inst's traffic to the engine when it runs
// that instance, and buffers it when the instance is still ahead.
func (o *ordering) onBinary(out []types.Message, m types.Message, inst int) []types.Message {
	switch {
	case inst == o.slot+1 && o.armed:
		out = o.bin.AppendDeliver(out, m)
	case inst > o.slot && inst <= o.slot+1_000_000:
		buf, ok := o.pending[inst]
		if !ok {
			buf, o.spare = o.spare, nil
		}
		o.pending[inst] = append(buf, m)
	}
	return out
}

// decide starts the current slot's agreement once its candidate arrived,
// and reports the slot's decision and candidate once the engine halts.
func (o *ordering) decide(out []types.Message) ([]types.Message, types.Value, string, bool) {
	if !o.armed {
		// An armed engine never runs past maxSlots: the commit that reaches
		// it disarms, so only a slot about to start checks done.
		if _, ok := o.cands[o.slot]; !ok || o.done() {
			return out, 0, "", false
		}
		o.arm()
		out = o.bin.AppendStart(out)
		if buf, ok := o.pending[o.slot+1]; ok {
			for _, m := range buf {
				out = o.bin.AppendDeliver(out, m)
			}
			delete(o.pending, o.slot+1)
			clear(buf) // no buffered message keeps its payload alive
			o.spare = buf[:0]
		}
	}
	if v, decided := o.bin.Decided(); decided && o.bin.Done() {
		return out, v, o.cands[o.slot], true
	}
	return out, 0, "", false
}

// arm starts the current slot's agreement instance (slot+1) on the
// replica's one engine: built at the first slot, re-armed at every later
// one, so its tables and blocks outlive the slot (see core.Node.Reset).
func (o *ordering) arm() {
	cfg := core.Config{
		Me: o.cfg.Me, Peers: o.cfg.Peers, Spec: o.cfg.Spec,
		Coin:      o.cfg.NewCoin(o.slot),
		Proposal:  types.One, // candidate in hand
		Instance:  o.slot + 1,
		Telemetry: o.cfg.Telemetry,
	}
	var err error
	if o.bin == nil {
		o.bin, err = core.New(cfg)
	} else {
		err = o.bin.Reset(cfg)
	}
	if err != nil {
		panic(fmt.Sprintf("smr: starting slot %d: %v", o.slot, err))
	}
	o.armed = true
}

// next moves past the slot just committed. Per-slot pruning, the log
// layer's version of the per-round invariant: a slot's candidate and RBC
// dissemination instance are dead once the slot commits, so a long log
// keeps a bounded working set instead of every candidate ever proposed. The
// RBC instance compacts to a delivered record (a no-op while non-terminal;
// see internal/rbc's pruning contract), so late echoes from lagging
// replicas still meet the exact silence the full state would have given
// them.
func (o *ordering) next() {
	o.values.Compact(types.InstanceID{Sender: o.proposer(o.slot), Tag: types.Tag{Seq: dissemNS + o.slot}})
	delete(o.cands, o.slot)
	o.slot++
	o.armed = false
}

// jump moves ordering to a state-transfer cut. Proposing turns the jump
// skips consume their queued commands: the cluster committed those slots
// without us (as noops, or as whatever a pre-crash instance disseminated),
// so re-proposing a consumed command at a later slot would diverge from the
// log the cluster actually built. Consumption mirrors proposalTake exactly
// — each skipped turn takes what it would have taken had it disseminated
// (one command, or a whole batch) — so nothing consumed is re-proposed and
// nothing unconsumed is dropped.
func (o *ordering) jump(cut int) {
	for s := max(o.slot, o.proposed); s < cut; s++ {
		if o.proposer(s) != o.cfg.Me {
			continue
		}
		k := o.proposalTake()
		if k == 0 {
			break
		}
		o.queue = o.queue[k:]
	}
	o.armed = false
	o.slot = cut
	maps.DeleteFunc(o.cands, func(s int, _ string) bool { return s < cut })
	maps.DeleteFunc(o.pending, func(inst int, _ []types.Message) bool { return inst <= cut }) // binary instance s+1 serves slot s
	o.values.DropSeqBelow(dissemNS + cut)
}

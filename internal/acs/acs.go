// Package acs implements Asynchronous Common Subset (Ben-Or, Kelmer, Rabin
// PODC 1994) on top of this repository's two primitives — exactly the
// construction that HoneyBadgerBFT (CCS 2016) later industrialized, and the
// reason Bracha's PODC-84 building blocks are called the basis of modern
// asynchronous BFT.
//
// Every process contributes an arbitrary byte-string input; all correct
// processes output the *same* subset of at least n−f inputs. The protocol:
//
//  1. Each process disseminates its input with Bracha reliable broadcast.
//  2. For every process j there is one binary consensus instance BA_j
//     ("does j's input make it into the subset?"). A process votes 1 in
//     BA_j as soon as it rbc-delivers j's input.
//  3. Once n−f instances have decided 1, the process votes 0 in every
//     instance it has not voted in yet.
//  4. When all n instances have decided, the output is the inputs of the
//     instances that decided 1 (waiting, where needed, for their RBC
//     deliveries — guaranteed by binary validity + RBC totality: a 1
//     decision means some correct process delivered that input).
//
// Each BA_j is a full Bracha randomized consensus node (internal/core)
// namespaced by instance — n+1 protocols multiplexed over one network, with
// no change to the underlying implementations.
package acs

import (
	"errors"
	"fmt"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/types"
)

// valueNS is the Tag.Seq namespace for input dissemination; binary
// instances use Seq 1..n. It bounds the number of processes, comfortably.
const valueNS = 1 << 20

// Proposal is one subset member: a process's contributed input.
type Proposal struct {
	Proposer types.ProcessID
	Value    string
}

// Config configures an ACS node.
type Config struct {
	// Me is this process; Peers lists all processes including Me.
	Me    types.ProcessID
	Peers []types.ProcessID
	// Spec is the failure assumption.
	Spec quorum.Spec
	// NewCoin builds the coin for one binary instance. Instances must not
	// share coin state; for the common coin give every instance its own
	// dealer. Required.
	NewCoin func(instance int) coin.Coin
	// Input is this process's contribution.
	Input string
}

// Node is one ACS participant. Deterministic state machine (sim.Node); not
// safe for concurrent use.
//
// All per-instance state lives in dense tables indexed by proposer index
// (1..n): instance lookup on the delivery path is an array index, and
// iteration order (coin fan-out, decision harvest, output assembly) is the
// peer order — deterministic by construction, where the seed's map ranges
// relied on emissions being order-insensitive.
type Node struct {
	cfg  Config
	spec quorum.Spec

	values *rbc.Broadcaster // input dissemination

	bins     []*core.Node      // binary instance per proposer index (1-based)
	pending  [][]types.Message // traffic for instances not yet started
	inputs   []string          // rbc-delivered inputs by proposer index
	hasInput []bool
	decided  []types.Value // binary decisions by proposer index
	resolved []bool        // decided[idx] is set
	voted    []bool        // instances this node has an opinion in
	ones     int           // instances decided 1
	resolves int           // instances decided (either way)
	output   []Proposal
	done     bool

	// The embedded recycled output buffer (see sim.OutBuffer): the
	// simulator hands consumed slices back and every delivery appends into
	// the same backing array. The inner consensus nodes append their
	// emissions straight into it (core.Node.AppendDeliver), so a
	// steady-state ACS delivery allocates nothing at any layer.
	sim.OutBuffer
}

// Config errors.
var (
	ErrNoCoinFactory = errors.New("acs: config requires NewCoin")
	ErrBadPeers      = quorum.ErrBadPeers
)

// New creates an ACS node.
func New(cfg Config) (*Node, error) {
	if cfg.NewCoin == nil {
		return nil, ErrNoCoinFactory
	}
	if err := cfg.Spec.CheckPeers(cfg.Me, cfg.Peers); err != nil {
		return nil, err
	}
	if len(cfg.Peers) >= valueNS {
		return nil, fmt.Errorf("%w: %d peers overflow the instance namespace", ErrBadPeers, len(cfg.Peers))
	}
	n := cfg.Spec.N()
	return &Node{
		cfg:      cfg,
		spec:     cfg.Spec,
		values:   rbc.New(cfg.Me, cfg.Peers, cfg.Spec),
		bins:     make([]*core.Node, n+1),
		pending:  make([][]types.Message, n+1),
		inputs:   make([]string, n+1),
		hasInput: make([]bool, n+1),
		decided:  make([]types.Value, n+1),
		resolved: make([]bool, n+1),
		voted:    make([]bool, n+1),
	}, nil
}

var (
	_ sim.Node     = (*Node)(nil)
	_ sim.Recycler = (*Node)(nil)
)

// ID implements sim.Node.
func (n *Node) ID() types.ProcessID { return n.cfg.Me }

// Done implements sim.Node. An ACS node never reports done: after producing
// its output it keeps serving RBC echoes and consensus traffic so laggards
// can finish (the caller stops the network once every correct node has
// output).
func (n *Node) Done() bool { return false }

// Start implements sim.Node: disseminate this process's input.
func (n *Node) Start() []types.Message {
	i, _ := n.spec.Index(n.cfg.Me)
	return n.values.AppendBroadcast(n.Take(), types.Tag{Seq: valueNS + i + 1}, n.cfg.Input)
}

// Deliver implements sim.Node.
func (n *Node) Deliver(m types.Message) []types.Message {
	out := n.Take()
	switch inst, kind := n.classify(m); kind {
	case trafficValues:
		var deliveries []rbc.Delivery
		out, deliveries, _ = n.values.AppendHandlePayload(out, m.From, m.Payload)
		for _, d := range deliveries {
			idx := d.ID.Tag.Seq - valueNS
			if i, ok := n.spec.Index(d.ID.Sender); !ok || idx != i+1 {
				continue // input instances are bound to their proposer
			}
			if n.hasInput[idx] {
				continue
			}
			n.hasInput[idx] = true
			n.inputs[idx] = d.Body
			// The input is stored; if the dissemination instance is already
			// terminal its tallies are dead weight — compact it to a digest
			// record (a no-op if echoes are still owed; see internal/rbc's
			// pruning contract).
			n.values.Compact(d.ID)
			// Seeing j's input is the trigger to vote 1 in BA_j.
			out = n.vote(out, idx, types.One)
		}
	case trafficCoin:
		// Coin shares carry a round but no instance; with per-instance
		// dealers the MACs bind each share to its dealer, so fan them to
		// every open instance — the right one accepts, the rest reject.
		for idx := 1; idx <= n.spec.N(); idx++ {
			if bin := n.bins[idx]; bin != nil {
				out = bin.AppendDeliver(out, m)
			}
		}
	case trafficBinary:
		switch {
		case inst < 1 || inst > n.spec.N():
			// Not a plausible instance; ignore.
		case n.bins[inst] != nil:
			out = n.bins[inst].AppendDeliver(out, m)
		case !n.voted[inst]:
			// Traffic for an instance this node has no opinion in yet:
			// buffer until an input arrives (vote 1) or the 0-voting phase
			// starts.
			n.pending[inst] = append(n.pending[inst], m)
		}
	}
	return n.harvest(out)
}

// Output returns the agreed subset once available: proposals of every
// instance that decided 1, ordered by proposer.
func (n *Node) Output() ([]Proposal, bool) {
	if !n.done {
		return nil, false
	}
	return append([]Proposal(nil), n.output...), true
}

type trafficKind int

const (
	trafficValues trafficKind = iota + 1
	trafficBinary
	trafficCoin
)

// classify maps a message to the value-dissemination plane, a binary
// instance, or the coin plane.
func (n *Node) classify(m types.Message) (int, trafficKind) {
	if id, ok := types.BroadcastID(m.Payload); ok {
		if id.Tag.Seq >= valueNS {
			return 0, trafficValues
		}
		return id.Tag.Seq, trafficBinary
	}
	switch p := m.Payload.(type) {
	case *types.DecidePayload:
		return p.Instance, trafficBinary
	case *types.CoinSharePayload:
		return 0, trafficCoin
	default:
		return 0, trafficBinary
	}
}

// vote starts binary instance idx with the given proposal, if this node has
// not voted there yet, and replays buffered traffic into it, appending all
// emissions to out.
func (n *Node) vote(out []types.Message, idx int, v types.Value) []types.Message {
	if n.voted[idx] {
		return out
	}
	n.voted[idx] = true
	bin, err := core.New(core.Config{
		Me:       n.cfg.Me,
		Peers:    n.cfg.Peers,
		Spec:     n.spec,
		Coin:     n.cfg.NewCoin(idx),
		Proposal: v,
		Instance: idx,
	})
	if err != nil {
		// Config is derived from our own validated Config; this cannot
		// fail for valid binary values.
		panic(fmt.Sprintf("acs: starting BA_%d: %v", idx, err))
	}
	n.bins[idx] = bin
	out = bin.AppendStart(out)
	for _, m := range n.pending[idx] {
		out = bin.AppendDeliver(out, m)
	}
	n.pending[idx] = nil
	return out
}

// harvest collects freshly decided instances, triggers the 0-voting phase,
// and assembles the final output, appending all emissions to out.
func (n *Node) harvest(out []types.Message) []types.Message {
	for idx := 1; idx <= n.spec.N(); idx++ {
		bin := n.bins[idx]
		if bin == nil || n.resolved[idx] {
			continue
		}
		if v, ok := bin.Decided(); ok {
			n.resolved[idx] = true
			n.decided[idx] = v
			n.resolves++
			if v == types.One {
				n.ones++
			}
		}
	}
	// Phase 3: n−f inclusions reached — vote 0 everywhere else.
	if n.ones >= n.spec.Quorum() {
		for idx := 1; idx <= n.spec.N(); idx++ {
			out = n.vote(out, idx, types.Zero)
		}
	}
	// Completion: all instances decided and all included inputs delivered.
	if !n.done && n.resolves == n.spec.N() {
		for idx := 1; idx <= n.spec.N(); idx++ {
			if n.decided[idx] == types.One && !n.hasInput[idx] {
				return out // an included input is still in flight
			}
		}
		n.done = true
		for idx := 1; idx <= n.spec.N(); idx++ {
			// Output is assembled; any dissemination instance that became
			// terminal after its input landed can compact now.
			n.values.Compact(types.InstanceID{
				Sender: n.cfg.Peers[idx-1],
				Tag:    types.Tag{Seq: valueNS + idx},
			})
			if n.decided[idx] == types.One {
				n.output = append(n.output, Proposal{
					Proposer: n.cfg.Peers[idx-1],
					Value:    n.inputs[idx],
				})
			}
		}
	}
	return out
}

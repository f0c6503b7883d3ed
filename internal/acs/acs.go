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
	// NewCoin builds the coin for one binary instance. Its argument is the
	// instance's wire number: the proposer's peer index + 1, so 1..n.
	// Instances must not share coin state; for the common coin give every
	// instance its own dealer. Required.
	NewCoin func(instance int) coin.Coin
	// Input is this process's contribution.
	Input string
}

// Node is one ACS participant. Deterministic state machine (sim.Node); not
// safe for concurrent use.
//
// Per-proposer state is one record per peer, indexed by quorum.Spec.Index:
// instance lookup on the delivery path is an array index, and iteration
// order (coin fan-out, decision harvest, output assembly) is the peer order
// — deterministic by construction.
type Node struct {
	cfg  Config
	spec quorum.Spec

	values *rbc.Broadcaster // input dissemination

	proposers []proposer // by peer index
	output    []Proposal
	done      bool

	// The embedded recycled output buffer (see sim.OutBuffer): the
	// simulator hands consumed slices back and every delivery appends into
	// the same backing array. The inner consensus nodes append their
	// emissions straight into it (core.Node.AppendDeliver), so a
	// steady-state ACS delivery allocates nothing at any layer.
	sim.OutBuffer
}

// proposer is what a node knows of one proposer j: its input and BA_j.
type proposer struct {
	bin      *core.Node      // BA_j; nil until this node votes in it
	pending  []types.Message // BA_j traffic that arrived before bin
	input    string          // the rbc-delivered input, once hasInput
	hasInput bool
	verdict  verdict
}

// verdict is BA_j's decision as harvested.
type verdict uint8

const (
	undecided verdict = iota
	excluded          // BA_j decided 0
	included          // BA_j decided 1
)

// instance is peer index i's number on the wire: its binary instance, its
// input's dissemination tag past valueNS, and Config.NewCoin's argument all
// number proposers from 1. index is its inverse. Records and wire numbers
// meet only here.
func instance(i int) int { return i + 1 }
func index(inst int) int { return inst - 1 }

// ErrNoCoinFactory is the config validation error for a missing NewCoin.
var ErrNoCoinFactory = errors.New("acs: config requires NewCoin")

// New creates an ACS node.
func New(cfg Config) (*Node, error) {
	if cfg.NewCoin == nil {
		return nil, ErrNoCoinFactory
	}
	if err := cfg.Spec.CheckPeers(cfg.Me, cfg.Peers); err != nil {
		return nil, err
	}
	if len(cfg.Peers) >= valueNS {
		return nil, fmt.Errorf("%w: %d peers overflow the instance namespace", quorum.ErrBadPeers, len(cfg.Peers))
	}
	return &Node{
		cfg:       cfg,
		spec:      cfg.Spec,
		values:    rbc.New(cfg.Me, cfg.Peers, cfg.Spec),
		proposers: make([]proposer, cfg.Spec.N()),
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
	return n.values.AppendBroadcast(n.Take(), types.Tag{Seq: valueNS + instance(i)}, n.cfg.Input)
}

// Deliver implements sim.Node.
func (n *Node) Deliver(m types.Message) []types.Message {
	out := n.Take()
	inst, plane := types.Route(m.Payload, valueNS)
	if _, peer := n.spec.Index(m.From); !peer {
		// Only peers take part: what others send is dropped here, before
		// any plane echoes or buffers it.
		plane = 0
	}
	switch plane {
	case types.PlaneValues:
		var deliveries []rbc.Delivery
		out, deliveries, _ = n.values.AppendHandlePayload(out, m.From, m.Payload)
		for _, d := range deliveries {
			i, ok := n.spec.Index(d.ID.Sender)
			if !ok || d.ID.Tag.Seq != valueNS+instance(i) {
				continue // input instances are bound to their proposer
			}
			pr := &n.proposers[i]
			if pr.hasInput {
				continue
			}
			pr.input, pr.hasInput = d.Body, true
			// The input is stored; if the dissemination instance is already
			// terminal its tallies are dead weight — compact it to a digest
			// record (a no-op if echoes are still owed; see internal/rbc's
			// pruning contract).
			n.values.Compact(d.ID)
			// Seeing j's input is the trigger to vote 1 in BA_j.
			out = n.vote(out, i, types.One)
		}
	case types.PlaneCoin:
		// Coin shares carry a round but no instance; with per-instance
		// dealers the MACs bind each share to its dealer, so fan them to
		// every open instance — the right one accepts, the rest reject.
		for i := range n.proposers {
			if bin := n.proposers[i].bin; bin != nil {
				out = bin.AppendDeliver(out, m)
			}
		}
	case types.PlaneBinary:
		switch i := index(inst); {
		case i < 0 || i >= len(n.proposers):
			// Not a plausible instance; ignore.
		case n.proposers[i].bin != nil:
			out = n.proposers[i].bin.AppendDeliver(out, m)
		default:
			// Traffic for an instance this node has no opinion in yet:
			// buffer until an input arrives (vote 1) or the 0-voting phase
			// starts.
			n.proposers[i].pending = append(n.proposers[i].pending, m)
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

// vote starts BA_j for peer index i with the given proposal, if this node
// has not voted there yet, and replays buffered traffic into it, appending
// all emissions to out.
func (n *Node) vote(out []types.Message, i int, v types.Value) []types.Message {
	pr := &n.proposers[i]
	if pr.bin != nil {
		return out
	}
	inst := instance(i)
	bin, err := core.New(core.Config{
		Me:       n.cfg.Me,
		Peers:    n.cfg.Peers,
		Spec:     n.spec,
		Coin:     n.cfg.NewCoin(inst),
		Proposal: v,
		Instance: inst,
	})
	if err != nil {
		// Config is derived from our own validated Config; this cannot
		// fail for valid binary values.
		panic(fmt.Sprintf("acs: starting BA_%d: %v", inst, err))
	}
	pr.bin = bin
	out = bin.AppendStart(out)
	for _, m := range pr.pending {
		out = bin.AppendDeliver(out, m)
	}
	pr.pending = nil
	return out
}

// harvest collects freshly decided instances, triggers the 0-voting phase,
// and assembles the final output, appending all emissions to out.
func (n *Node) harvest(out []types.Message) []types.Message {
	ones, decided := 0, 0
	for i := range n.proposers {
		pr := &n.proposers[i]
		if pr.verdict == undecided && pr.bin != nil {
			if v, ok := pr.bin.Decided(); ok {
				pr.verdict = excluded
				if v == types.One {
					pr.verdict = included
				}
			}
		}
		if pr.verdict != undecided {
			decided++
		}
		if pr.verdict == included {
			ones++
		}
	}
	// Phase 3: n−f inclusions reached — vote 0 everywhere else.
	if ones >= n.spec.Quorum() {
		for i := range n.proposers {
			out = n.vote(out, i, types.Zero)
		}
	}
	// Completion: all instances decided and all included inputs delivered.
	if n.done || decided < len(n.proposers) {
		return out
	}
	for _, pr := range n.proposers {
		if pr.verdict == included && !pr.hasInput {
			return out // an included input is still in flight
		}
	}
	n.done = true
	for i, pr := range n.proposers {
		// Output is assembled; any dissemination instance that became
		// terminal after its input landed can compact now.
		j := n.cfg.Peers[i]
		n.values.Compact(types.InstanceID{Sender: j, Tag: types.Tag{Seq: valueNS + instance(i)}})
		if pr.verdict == included {
			n.output = append(n.output, Proposal{Proposer: j, Value: pr.input})
		}
	}
	return out
}

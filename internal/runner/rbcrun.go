package runner

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/check"
	"repro/internal/rbc"
	"repro/internal/sim"
	"repro/internal/types"
)

// BroadcastMode selects the primitive under test.
type BroadcastMode int

// Broadcast modes.
const (
	// ModeReliable is Bracha reliable broadcast (SEND/ECHO/READY) — the
	// paper's primitive, with totality.
	ModeReliable BroadcastMode = iota
	// ModeConsistent is echo broadcast (SEND/ECHO): one phase cheaper, no
	// totality. Ablation A4 contrasts the two.
	ModeConsistent
)

// String implements fmt.Stringer.
func (m BroadcastMode) String() string {
	if m == ModeConsistent {
		return "consistent"
	}
	return "reliable"
}

// RBCConfig describes one broadcast experiment (E1, A4): a single instance
// broadcast into a system with optional Byzantine processes.
type RBCConfig struct {
	N int
	F int
	// Byzantine is the actual number of faulty processes (-1 = F). Faulty
	// processes are silent unless the sender attacks.
	Byzantine int
	// Mode selects reliable (default) or consistent broadcast.
	Mode BroadcastMode
	// SenderEquivocates makes the broadcast sender Byzantine: half the
	// processes are SENT body "A", half "B", and the remaining Byzantine
	// processes echo both. Otherwise process 1 (correct) broadcasts.
	SenderEquivocates bool
	// SenderPartial makes the broadcast sender Byzantine in a subtler way:
	// it addresses (SEND + its own ECHO) only just-enough correct
	// processes to let them deliver, starving the rest — the attack that
	// separates totality (reliable) from its absence (consistent).
	SenderPartial bool
	// PayloadSize is the broadcast body length in bytes.
	PayloadSize int
	Seed        int64
}

// RBCResult is the outcome of one RBC run.
type RBCResult struct {
	SimStats
	Violations []check.Violation
	// Delivered maps each correct process to the bodies it delivered.
	Delivered map[types.ProcessID][]string
}

// bcaster is the shared surface of rbc.Broadcaster and rbc.Consistent.
type bcaster interface {
	Broadcast(tag types.Tag, body string) []types.Message
	Handle(from types.ProcessID, p *types.RBCPayload) ([]types.Message, []rbc.Delivery)
}

// rbcNode adapts a broadcast endpoint to sim.Node for single-instance
// experiments.
type rbcNode struct {
	me       types.ProcessID
	bcast    bcaster
	isSender bool
	tag      types.Tag
	body     string

	delivered []string
}

func (r *rbcNode) ID() types.ProcessID { return r.me }

func (r *rbcNode) Start() []types.Message {
	if !r.isSender {
		return nil
	}
	return r.bcast.Broadcast(r.tag, r.body)
}

func (r *rbcNode) Deliver(m types.Message) []types.Message {
	p, ok := m.Payload.(*types.RBCPayload)
	if !ok {
		return nil
	}
	out, ds := r.bcast.Handle(m.From, p)
	for _, d := range ds {
		r.delivered = append(r.delivered, d.Body)
	}
	return out
}

func (r *rbcNode) Done() bool { return false }

// rbcEquivocator is the Byzantine sender of the E1 attack variant: split
// SENDs plus double ECHO/READY from its colluders is modelled by the
// colluders (also rbcEquivocator with isSender=false) echoing both bodies.
type rbcEquivocator struct {
	me      types.ProcessID
	peers   []types.ProcessID
	tag     types.Tag
	bodies  [2]string
	sender  bool
	flooded bool
}

func (e *rbcEquivocator) ID() types.ProcessID { return e.me }

func (e *rbcEquivocator) Start() []types.Message {
	if !e.sender {
		return nil
	}
	id := types.InstanceID{Sender: e.me, Tag: e.tag}
	out := make([]types.Message, 0, len(e.peers))
	for i, p := range e.peers {
		body := e.bodies[0]
		if i >= len(e.peers)/2 {
			body = e.bodies[1]
		}
		out = append(out, types.Message{
			From:    e.me,
			To:      p,
			Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body},
		})
	}
	return out
}

func (e *rbcEquivocator) Deliver(m types.Message) []types.Message {
	p, ok := m.Payload.(*types.RBCPayload)
	if !ok || e.flooded {
		return nil
	}
	e.flooded = true
	var out []types.Message
	for _, body := range e.bodies {
		for _, phase := range []types.Kind{types.KindRBCEcho, types.KindRBCReady} {
			pl := &types.RBCPayload{Phase: phase, ID: p.ID, Body: body}
			out = append(out, types.Broadcast(e.me, e.peers, pl)...)
		}
	}
	return out
}

func (e *rbcEquivocator) Done() bool { return false }

// rbcPartialSender is the totality attack: SEND and ECHO addressed to just
// enough correct processes to let them deliver, starving the rest. Against
// reliable broadcast the victims' READY amplification rescues everyone;
// against consistent broadcast the starved processes never deliver.
type rbcPartialSender struct {
	me      types.ProcessID
	peers   []types.ProcessID
	tag     types.Tag
	body    string
	targets int
}

func (s *rbcPartialSender) ID() types.ProcessID { return s.me }

func (s *rbcPartialSender) Start() []types.Message {
	id := types.InstanceID{Sender: s.me, Tag: s.tag}
	out := make([]types.Message, 0, 2*s.targets)
	for _, p := range s.peers[:s.targets] {
		out = append(out,
			types.Message{From: s.me, To: p, Payload: &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: s.body}},
			types.Message{From: s.me, To: p, Payload: &types.RBCPayload{Phase: types.KindRBCEcho, ID: id, Body: s.body}},
		)
	}
	return out
}

func (s *rbcPartialSender) Deliver(types.Message) []types.Message { return nil }

func (s *rbcPartialSender) Done() bool { return false }

// RunRBC executes one reliable-broadcast experiment.
func RunRBC(cfg RBCConfig) (*RBCResult, error) {
	if cfg.Byzantine < 0 {
		cfg.Byzantine = cfg.F
	}
	spec, err := validate(cfg.N, cfg.F, cfg.Byzantine)
	if err != nil {
		return nil, err
	}
	if cfg.PayloadSize <= 0 {
		cfg.PayloadSize = 32
	}
	peers := types.Processes(cfg.N)
	tag := types.Tag{Seq: 1}
	bodyA := strings.Repeat("a", cfg.PayloadSize)
	bodyB := strings.Repeat("b", cfg.PayloadSize)

	cl, err := newCluster(newScheduler(SchedUniform, SchedParams{}, schedTopology{}), cfg.Seed, 0, false, false)
	if err != nil {
		return nil, err
	}

	byzSet := make(map[types.ProcessID]bool, cfg.Byzantine)
	for _, p := range peers[cfg.N-cfg.Byzantine:] {
		byzSet[p] = true
	}
	byzSender := cfg.SenderEquivocates || cfg.SenderPartial
	var sender types.ProcessID = 1
	if byzSender {
		if cfg.Byzantine == 0 {
			return nil, fmt.Errorf("%w: a Byzantine sender needs byzantine > 0", ErrBadConfig)
		}
		sender = peers[cfg.N-cfg.Byzantine] // first Byzantine process
	}

	correct := make([]*rbcNode, 0, cfg.N-cfg.Byzantine)
	members := make([]sim.Node, 0, cfg.N)
	for _, p := range peers {
		if byzSet[p] {
			var adv sim.Node
			switch {
			case cfg.SenderPartial && p == sender:
				adv = &rbcPartialSender{
					me: p, peers: peers, tag: tag, body: bodyA,
					targets: spec.Echo() - 1,
				}
			case cfg.SenderPartial:
				adv = &adversary.Silent{Me: p}
			default:
				adv = &rbcEquivocator{
					me: p, peers: peers, tag: tag,
					bodies: [2]string{bodyA, bodyB},
					sender: cfg.SenderEquivocates && p == sender,
				}
			}
			members = append(members, adv)
			continue
		}
		var b bcaster
		if cfg.Mode == ModeConsistent {
			b = rbc.NewConsistent(p, peers, spec)
		} else {
			b = rbc.New(p, peers, spec)
		}
		node := &rbcNode{
			me:       p,
			bcast:    b,
			isSender: !byzSender && p == sender,
			tag:      tag,
			body:     bodyA,
		}
		correct = append(correct, node)
		members = append(members, node)
	}

	res := &RBCResult{Delivered: make(map[types.ProcessID][]string, len(correct))}
	if res.SimStats, _, err = cl.run(members, nil); err != nil {
		return nil, err
	}
	obs := check.RBCObservation{
		SenderCorrect: !byzSender,
		Broadcast:     bodyA,
		Delivered:     make(map[types.ProcessID][]string, len(correct)),
		Quiesced:      true,
	}
	for _, nd := range correct {
		obs.Correct = append(obs.Correct, nd.me)
		obs.Delivered[nd.me] = nd.delivered
		res.Delivered[nd.me] = nd.delivered
	}
	if byzSender {
		// A Byzantine sender legitimately may cause nothing to deliver:
		// totality only applies when someone delivered, which check.RBC
		// already encodes; validity does not apply.
		obs.Broadcast = ""
	}
	res.Violations = check.RBC(obs)
	return res, nil
}

package rbc

import (
	"repro/internal/quorum"
	"repro/internal/types"
)

// Consistent is consistent broadcast (echo broadcast): the cheaper sibling
// of reliable broadcast that drops the READY amplification and with it the
// totality property. It guarantees, for n > 3f:
//
//   - Validity: a correct sender's message is delivered by every correct
//     process.
//   - Consistency: no two correct processes deliver different messages for
//     the same instance.
//   - Integrity: at most one delivery per instance per process.
//
// What it does NOT guarantee is totality: a Byzantine sender can address
// only part of the system and leave the rest without a delivery forever.
// Bracha's consensus needs totality (everyone must be able to count the
// same step messages), which is why the paper's broadcast has the third
// phase; ablation A4 measures the price difference (n + n² versus n + 2n²
// messages) and demonstrates the totality gap.
//
// Mechanics per instance: sender SENDs to all; every process ECHOes the
// first SEND it accepts; a process delivers on ⌈(n+f+1)/2⌉ matching ECHOes
// (two such quorums for different bodies would need more echo votes than
// n + f processes can produce).
type Consistent struct {
	me        types.ProcessID
	peers     []types.ProcessID
	spec      quorum.Spec
	instances map[types.InstanceID]*cInstance
}

type cInstance struct {
	echoedBody *string
	delivered  bool
	echoes     map[string]map[types.ProcessID]bool
}

// NewConsistent creates a consistent-broadcast endpoint for process me.
func NewConsistent(me types.ProcessID, peers []types.ProcessID, spec quorum.Spec) *Consistent {
	return &Consistent{
		me:        me,
		peers:     append([]types.ProcessID(nil), peers...),
		spec:      spec,
		instances: make(map[types.InstanceID]*cInstance),
	}
}

func (c *Consistent) inst(id types.InstanceID) *cInstance {
	in, ok := c.instances[id]
	if !ok {
		in = &cInstance{echoes: make(map[string]map[types.ProcessID]bool)}
		c.instances[id] = in
	}
	return in
}

// Broadcast starts an instance with this process as sender.
func (c *Consistent) Broadcast(tag types.Tag, body string) []types.Message {
	id := types.InstanceID{Sender: c.me, Tag: tag}
	p := &types.RBCPayload{Phase: types.KindRBCSend, ID: id, Body: body}
	return types.Broadcast(c.me, c.peers, p)
}

// Handle processes one incoming payload (SEND or ECHO; READY is not part of
// this primitive and is ignored) and returns protocol messages plus any
// delivery.
func (c *Consistent) Handle(from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	if p == nil {
		return nil, nil
	}
	switch p.Phase {
	case types.KindRBCSend:
		if from != p.ID.Sender {
			return nil, nil
		}
		in := c.inst(p.ID)
		if in.echoedBody != nil {
			return nil, nil
		}
		body := p.Body
		in.echoedBody = &body
		echo := &types.RBCPayload{Phase: types.KindRBCEcho, ID: p.ID, Body: body}
		return types.Broadcast(c.me, c.peers, echo), nil
	case types.KindRBCEcho:
		if _, ok := c.spec.Index(from); !ok {
			return nil, nil // only peers hold votes toward the echo quorum
		}
		in := c.inst(p.ID)
		set := in.echoes[p.Body]
		if set == nil {
			set = make(map[types.ProcessID]bool)
			in.echoes[p.Body] = set
		}
		set[from] = true
		if !in.delivered && len(set) >= c.spec.Echo() {
			in.delivered = true
			return nil, []Delivery{{ID: p.ID, Body: p.Body}}
		}
		return nil, nil
	default:
		return nil, nil
	}
}

package rbc

import (
	"slices"

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

// cInstance is one instance's state. echoes counts the distinct peers
// echoing each body in the reliable broadcaster's tally type, with the echo
// half only: a bitset over peer indexes (quorum.Spec.Index) and its
// popcount.
type cInstance struct {
	echoed    bool
	delivered bool
	echoes    []tally
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
		in = &cInstance{}
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
// delivery. Traffic from a non-peer, or for a non-peer's instance, is
// dropped before it can open an instance or draw an echo.
func (c *Consistent) Handle(from types.ProcessID, p *types.RBCPayload) ([]types.Message, []Delivery) {
	if p == nil {
		return nil, nil
	}
	pi, ok := c.spec.Index(from)
	if !ok {
		return nil, nil
	}
	if _, ok := c.spec.Index(p.ID.Sender); !ok {
		return nil, nil
	}
	switch p.Phase {
	case types.KindRBCSend:
		if from != p.ID.Sender {
			return nil, nil
		}
		in := c.inst(p.ID)
		if in.echoed {
			return nil, nil
		}
		in.echoed = true
		echo := &types.RBCPayload{Phase: types.KindRBCEcho, ID: p.ID, Body: p.Body}
		return types.Broadcast(c.me, c.peers, echo), nil
	case types.KindRBCEcho:
		in := c.inst(p.ID)
		i := slices.IndexFunc(in.echoes, func(t tally) bool { return t.body == p.Body })
		if i < 0 {
			i = len(in.echoes)
			in.echoes = append(in.echoes, tally{body: p.Body, seen: make([]uint64, (c.spec.N()+63)/64)})
		}
		t := &in.echoes[i]
		if w, bit := pi>>6, uint64(1)<<(pi&63); t.seen[w]&bit == 0 {
			t.seen[w] |= bit
			t.echoes++
		}
		if !in.delivered && t.echoes >= c.spec.Echo() {
			in.delivered = true
			return nil, []Delivery{{ID: p.ID, Body: p.Body}}
		}
		return nil, nil
	default:
		return nil, nil
	}
}

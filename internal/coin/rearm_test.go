package coin

import (
	"reflect"
	"testing"

	"repro/internal/types"
)

// playRounds releases rounds from..to at every endpoint, delivers all shares
// but the last endpoint's of round `to` (left half done), prunes the dealer
// and the endpoints below prune (0: never), and returns every share message
// and every endpoint's value per round.
func playRounds(d *Dealer, cs []*Common, from, to, prune int) []string {
	var out []string
	for r := from; r <= to; r++ {
		var all []types.Message
		for i, c := range cs {
			msgs := c.Release(r)
			if r == to && i == len(cs)-1 {
				continue
			}
			all = append(all, msgs...)
		}
		deliverAll(cs, all)
		for _, m := range all {
			p := m.Payload.(*types.CoinSharePayload)
			out = append(out, m.From.String()+m.To.String()+p.String()+p.Share+p.MAC)
		}
		for _, c := range cs {
			v, ok := c.Value(r)
			out = append(out, v.String()+map[bool]string{false: "?", true: "!"}[ok])
		}
	}
	if prune > 0 {
		d.Prune(prune)
		for _, c := range cs {
			c.Prune(prune)
		}
	}
	return out
}

// TestRearmedCoinMatchesNew: a dealer and its endpoints re-armed with
// Dealer.Reset and Common.Reset — after rounds dealt, pruned and left half
// reconstructed under another seed — release the same shares and reach the
// same values as a new dealer and new endpoints of the new seed.
func TestRearmedCoinMatchesNew(t *testing.T) {
	d, cs := newCommonSet(t, 7, 2, 11)
	playRounds(d, cs, 1, 6, 4)
	d.Reset(23)
	for _, c := range cs {
		c.Reset()
	}
	if d.RoundsRetained() != 0 {
		t.Fatalf("re-armed dealer retains %d rounds", d.RoundsRetained())
	}
	fd, fcs := newCommonSet(t, 7, 2, 23)
	got, want := playRounds(d, cs, 1, 8, 0), playRounds(fd, fcs, 1, 8, 0)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-armed coin released or reconstructed differently from a new one")
	}
	for r := 1; r <= 8; r++ {
		if d.SecretFor(r) != fd.SecretFor(r) {
			t.Errorf("round %d: re-armed dealer's secret differs", r)
		}
	}
}

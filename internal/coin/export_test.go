package coin

import (
	"repro/internal/shamir"
	"repro/internal/types"
)

// SecretFor returns the round's coin, reconstructed from the dealer's own
// sharing of it. For rounds below the low-watermark the sharing is gone and
// the zero value is returned.
func (d *Dealer) SecretFor(round int) types.Value {
	ss := d.deal(round)
	if ss == nil {
		return types.Zero
	}
	secret, err := shamir.Reconstruct(ss, len(ss))
	if err != nil {
		panic(err)
	}
	return types.Value(secret[0])
}

package validate

import "repro/internal/types"

// Justified reports whether m could have been sent by a correct process,
// judged against the currently justified tallies. It is monotone: once true
// for a message, it stays true.
func (v *Validator) Justified(m types.StepMessage) bool {
	return wellFormed(m) && v.justified(m)
}

// Tallied returns how many messages have been folded into the justified
// tallies, which are never pruned.
func (v *Validator) Tallied() int {
	n := 0
	for _, t := range v.rounds {
		for _, c := range [][2]int{t.step1, t.step2, t.step3Plain, t.step3D} {
			n += c[0] + c[1]
		}
	}
	return n
}

// Pending returns how many recorded messages are still unjustified (for
// correct traffic this returns to 0 as rounds complete).
func (v *Validator) Pending() int { return len(v.pending) }

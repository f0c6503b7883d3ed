package trace

import "strings"

// Filter returns the stored events matching pred, in order.
func (r *Recorder) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// Dump renders all stored events, one per line.
func (r *Recorder) Dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

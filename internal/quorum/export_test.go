package quorum

// IsOptimal reports whether the spec satisfies the paper's resilience bound
// n > 3f.
func (s Spec) IsOptimal() bool { return s.n > 3*s.f }

// MinProcesses returns 3f+1, the smallest system that tolerates f Byzantine
// processes.
func MinProcesses(f int) int {
	if f < 0 {
		return 1
	}
	return 3*f + 1
}

// BenOrMaxByzantine returns ⌈n/5⌉−1, the largest f the Ben-Or (1983)
// baseline tolerates (it requires n > 5f).
func BenOrMaxByzantine(n int) int {
	if n < 1 {
		return 0
	}
	return (n - 1) / 5
}

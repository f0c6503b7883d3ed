package shamir

// Clone returns a deep copy of the share.
func (s Share) Clone() Share {
	y := make([]byte, len(s.Y))
	copy(y, s.Y)
	return Share{X: s.X, Y: y}
}

package types

// Valid reports whether k is a known payload kind.
func (k Kind) Valid() bool { return k >= KindRBCSend && k <= KindRBCSum }

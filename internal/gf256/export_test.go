package gf256

// Pow returns a^e in GF(2^8), read from the log/exp tables Mul and Div
// use, so TestPow and TestPowEdgeGrid check those tables' group structure
// against repeated mulSlow. Pow(x, 0) = 1, including Pow(0, 0) (x⁰ is the
// empty product). For a ≠ 0, Pow(a, e) = a^(e mod 255), so negative
// exponents go through the inverse; Pow(0, e) with e < 0 would divide by
// zero and returns 0, as Div does.
func Pow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	// The multiplicative group has order 255.
	le := (int(_tables.log[a]) * (e % 255)) % 255
	if le < 0 {
		le += 255
	}
	return _tables.exp[le]
}

//go:build !amd64

package gf256

// useAVX2 is false off amd64: the pure-Go kernel is the only one.
const useAVX2 = false

func mulAddSlice(t *nibbleTable, src, dst []byte) { mulAddGeneric(t, src, dst) }

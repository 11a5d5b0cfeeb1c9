// Package fbits converts float64 streams to and from raw IEEE-754 bit
// patterns. The content-addressed store's manifests, the one persisted
// encoding of a golden profile, go through these two functions, because
// encoding/json rejects NaN/Inf and a decimal round trip is not
// guaranteed bit-exact, while the substrate's byte-identity contracts
// require exactly the bits the golden run produced.
package fbits

import "math"

// Of returns the IEEE-754 bit pattern of every element (nil in, nil out).
func Of(fs []float64) []uint64 {
	if fs == nil {
		return nil
	}
	bs := make([]uint64, len(fs))
	for i, f := range fs {
		bs[i] = math.Float64bits(f)
	}
	return bs
}

// Floats inverts Of (nil in, nil out).
func Floats(bs []uint64) []float64 {
	if bs == nil {
		return nil
	}
	fs := make([]float64, len(bs))
	for i, b := range bs {
		fs[i] = math.Float64frombits(b)
	}
	return fs
}

package trace

// Address-plan periodicity helpers. A reference whose linearised address
// advances by a fixed stride c along one loop dimension revisits the same
// line offset every LineWrapPeriod iterations: translating the iteration
// by a multiple of the period shifts every address by a multiple of the
// line size, which moves whole memory lines without changing any
// line-relative relation. The symbolic solver uses these periods to
// classify one period of a dimension and replicate the verdicts across
// the rest.

// Gcd returns the greatest common divisor of two non-negative int64s
// (gcd(0, b) = b).
func Gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LineWrapPeriod returns the smallest t > 0 such that stride·t is a
// multiple of lineBytes: translating an access by t iterations along the
// strided dimension shifts its address by whole memory lines. A zero
// stride yields period 1 (the address does not move at all).
func LineWrapPeriod(stride, lineBytes int64) int64 {
	if stride < 0 {
		stride = -stride
	}
	if stride == 0 {
		return 1
	}
	return lineBytes / Gcd(stride, lineBytes)
}

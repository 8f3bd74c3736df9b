// Fixture for the floatcmp analyzer; see lint_test.go.
package fixture

import "math"

func exactEqual(a, b float64) bool {
	return a == b // want "exact == on floating-point values"
}

func exactNotEqual(a, b float32) bool {
	return a != b // want "exact != on floating-point values"
}

func tolerant(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9 // ok: tolerance comparison
}

func nanCheck(x float64) bool {
	return x != x // ok: the deliberate NaN idiom
}

func integers(a, b int) bool {
	return a == b // ok: exact integer comparison is well-defined
}

func sentinel(x float64) bool {
	return x == 0 //dtlint:allow floatcmp: x is assigned zero, never computed
}

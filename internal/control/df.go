package control

import (
	"math"
)

// DF is the describing function of one marking law: the complex gain seen
// by the fundamental of a sinusoidal queue excursion x = X·sin(ωt).
type DF interface {
	// Name identifies the marking law.
	Name() string
	// Eval returns N(X), defined for X ≥ MinAmplitude.
	Eval(X float64) complex128
	// NegInvRelative returns −1/N₀(X), the locus compared against
	// K₀·G(jω) (Eq. 9).
	NegInvRelative(X float64) complex128
	// K0 is the characteristic gain split out of the DF (1/K for
	// DCTCP, 1/K2 for DT-DCTCP).
	K0() float64
	// MinAmplitude is the smallest X for which the DF is defined (K
	// resp. max(K1, K2)).
	MinAmplitude() float64
}

// DCTCPDF is the relay describing function of the single-threshold marker
// (Eq. 22): N(X) = (2/πX)·√(1 − (K/X)²).
type DCTCPDF struct {
	// K is the marking threshold in packets.
	K float64
}

// Name implements DF.
func (DCTCPDF) Name() string { return "dctcp-single" }

// MinAmplitude implements DF.
func (d DCTCPDF) MinAmplitude() float64 { return d.K }

// K0 implements DF.
func (d DCTCPDF) K0() float64 { return 1 / d.K }

// Eval implements DF.
func (d DCTCPDF) Eval(X float64) complex128 {
	if X < d.K {
		return 0
	}
	u := d.K / X
	return complex(2/(math.Pi*X)*math.Sqrt(1-u*u), 0)
}

// NegInvRelative implements DF: −1/N₀ with N₀(X) = (2/π)(K/X)√(1−(K/X)²)
// (Eq. 23), purely real and ≤ −π.
func (d DCTCPDF) NegInvRelative(X float64) complex128 {
	n0 := d.Eval(X) * complex(d.K, 0)
	if n0 == 0 {
		return complex(math.Inf(-1), 0)
	}
	return -1 / n0
}

// DTDCTCPDF is the describing function of the double-threshold marker
// (Eq. 27): marking starts at the rising crossing of K1 and stops at the
// falling crossing of K2.
type DTDCTCPDF struct {
	// K1 is the rising-edge threshold in packets.
	K1 float64
	// K2 is the falling-edge threshold in packets.
	K2 float64
}

// Name implements DF.
func (DTDCTCPDF) Name() string { return "dt-dctcp" }

// MinAmplitude implements DF.
func (d DTDCTCPDF) MinAmplitude() float64 { return math.Max(d.K1, d.K2) }

// K0 implements DF.
func (d DTDCTCPDF) K0() float64 { return 1 / d.K2 }

// Eval implements DF (Eq. 27):
//
//	N(X) = (1/πX)[√(1−(K1/X)²) + √(1−(K2/X)²)] + j·(K2−K1)/(πX²)
func (d DTDCTCPDF) Eval(X float64) complex128 {
	if X < d.MinAmplitude() {
		return 0
	}
	u1, u2 := d.K1/X, d.K2/X
	re := (math.Sqrt(1-u1*u1) + math.Sqrt(1-u2*u2)) / (math.Pi * X)
	im := (d.K2 - d.K1) / (math.Pi * X * X)
	return complex(re, im)
}

// NegInvRelative implements DF: −1/N₀ with N₀ = K2·N(X) (Eq. 28).
func (d DTDCTCPDF) NegInvRelative(X float64) complex128 {
	n0 := d.Eval(X) * complex(d.K2, 0)
	if n0 == 0 {
		return complex(math.Inf(-1), 0)
	}
	return -1 / n0
}

// NumericDF computes the describing function of an arbitrary relay
// waveform by direct Fourier integration of the marking indicator over
// one period, using nSteps trapezoids. mark(theta) must return the relay
// output (0 or 1) for the input X·sin(θ). It exists to cross-check the
// closed forms (property tests) and to analyze marker variants with no
// analytic DF.
func NumericDF(X float64, nSteps int, mark func(theta float64) float64) complex128 {
	if nSteps < 8 {
		nSteps = 8
	}
	h := 2 * math.Pi / float64(nSteps)
	var a1, b1 float64
	for i := 0; i < nSteps; i++ {
		th := float64(i) * h
		y := mark(th)
		a1 += y * math.Cos(th) * h
		b1 += y * math.Sin(th) * h
	}
	a1 /= math.Pi
	b1 /= math.Pi
	return complex(b1/X, a1/X)
}

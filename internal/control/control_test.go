package control

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

// paperPlant uses the parameter set of the paper's Fig. 9 (R = 100 µs,
// C = 10 Gbps, g = 1/16) with the capacity expressed in the packet unit
// that reproduces the paper's numeric onsets (see DESIGN.md: C = 10⁷
// pkts/s).
func paperPlant(n float64) Plant {
	return Plant{C: 1e7, N: n, R0: 1e-4, G: 1.0 / 16}
}

func TestPlantValid(t *testing.T) {
	if !paperPlant(10).Valid() {
		t.Fatal("paper plant should be valid")
	}
	bad := []Plant{
		{},
		{C: 1, N: 1, R0: 1}, // G = 0
		{C: 1, N: 1, G: 0.5},
		{C: 1, R0: 1, G: 0.5},
		{N: 1, R0: 1, G: 0.5},
		{C: 1, N: 1, R0: 1, G: 1.5},
	}
	for i, p := range bad {
		if p.Valid() {
			t.Errorf("plant %d should be invalid", i)
		}
	}
}

func TestPlantDCGainClosedForm(t *testing.T) {
	// As ω→0, G → √(C/2NR₀)·2R₀²C (all N-dependent poles/zeros cancel).
	p := paperPlant(60)
	want := math.Sqrt(p.C/(2*p.N*p.R0)) * 2 * p.R0 * p.R0 * p.C
	got := p.Eval(1e-3)
	if math.Abs(real(got)-want)/want > 1e-6 {
		t.Fatalf("G(0) = %v, want %v", got, want)
	}
	if math.Abs(imag(got)) > want*1e-3 {
		t.Fatalf("G(0) imaginary part %v not ~0", imag(got))
	}
}

func TestPhaseCrossover(t *testing.T) {
	p := paperPlant(60)
	df := DCTCPDF{K: 40}
	w, re, err := p.PhaseCrossover(df.K0(), 1e2, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	z := complex(df.K0(), 0) * p.Eval(w)
	if math.Abs(imag(z)) > 1e-6*cmplx.Abs(z) {
		t.Fatalf("crossover at w=%v has Im=%v", w, imag(z))
	}
	if re >= 0 {
		t.Fatalf("crossover real part %v, want negative", re)
	}
	// Paper's claim for N=60: the locus reaches past −π.
	if re > -math.Pi {
		t.Fatalf("crossover %v, want ≤ −π for N=60", re)
	}
}

func TestPhaseCrossoverInvalidPlant(t *testing.T) {
	var p Plant
	if _, _, err := p.PhaseCrossover(1, 1, 10); err == nil {
		t.Fatal("invalid plant accepted")
	}
}

func TestLocusSampling(t *testing.T) {
	p := paperPlant(10)
	ws, zs := p.Locus(1.0/40, 1e2, 1e6, 100)
	if len(ws) != 100 || len(zs) != 100 {
		t.Fatalf("locus lengths %d/%d", len(ws), len(zs))
	}
	if ws[0] != 1e2 || math.Abs(ws[99]-1e6)/1e6 > 1e-9 {
		t.Fatalf("locus endpoints %v..%v", ws[0], ws[99])
	}
	if ws2, zs2 := p.Locus(1, -1, 1, 10); ws2 != nil || zs2 != nil {
		t.Fatal("invalid range should return nil")
	}
}

func TestDCTCPDFClosedForm(t *testing.T) {
	df := DCTCPDF{K: 40}
	if df.MinAmplitude() != 40 || df.K0() != 1.0/40 {
		t.Fatal("accessors wrong")
	}
	// Below K the relay never switches: DF is 0.
	if df.Eval(30) != 0 {
		t.Fatal("DF below K should be 0")
	}
	// At X = K√2, N₀ attains its max 1/π, so −1/N₀ = −π.
	x := 40 * math.Sqrt2
	ni := df.NegInvRelative(x)
	if math.Abs(real(ni)+math.Pi) > 1e-9 || imag(ni) != 0 {
		t.Fatalf("−1/N₀(K√2) = %v, want −π", ni)
	}
	if df.Name() != "dctcp-single" {
		t.Fatal("name")
	}
}

func TestDTDCTCPDFClosedForm(t *testing.T) {
	df := DTDCTCPDF{K1: 30, K2: 50}
	if df.MinAmplitude() != 50 || df.K0() != 1.0/50 {
		t.Fatal("accessors wrong")
	}
	if df.Eval(40) != 0 {
		t.Fatal("DF below max(K1,K2) should be 0")
	}
	n := df.Eval(100)
	// Eq. 27 by hand at X=100: re = (√(1−0.09)+√(1−0.25))/(100π),
	// im = 20/(π·10⁴).
	wantRe := (math.Sqrt(0.91) + math.Sqrt(0.75)) / (100 * math.Pi)
	wantIm := 20 / (math.Pi * 1e4)
	if math.Abs(real(n)-wantRe) > 1e-12 || math.Abs(imag(n)-wantIm) > 1e-12 {
		t.Fatalf("N_dt(100) = %v, want %v+%vj", n, wantRe, wantIm)
	}
	if imag(n) <= 0 {
		t.Fatal("DT DF must have positive imaginary part for K2 > K1")
	}
	// −1/N₀ then has positive imaginary part too (the paper's geometric
	// argument for why DT-DCTCP intersects later).
	if imag(df.NegInvRelative(100)) <= 0 {
		t.Fatal("−1/N₀ should have positive imaginary part")
	}
	if df.Name() != "dt-dctcp" {
		t.Fatal("name")
	}
}

// Property: with K1 = K2 = K the double-threshold DF degenerates exactly
// to the single-threshold DF.
func TestPropertyDTReducesToDC(t *testing.T) {
	f := func(kRaw, xRaw uint8) bool {
		k := float64(kRaw%60) + 5
		x := k*1.01 + float64(xRaw)
		dc := DCTCPDF{K: k}
		dt := DTDCTCPDF{K1: k, K2: k}
		a, b := dc.Eval(x), dt.Eval(x)
		return cmplx.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the closed-form DFs agree with direct numeric Fourier
// integration of the marking waveform.
func TestPropertyDFMatchesNumericFourier(t *testing.T) {
	const steps = 200000
	f := func(kRaw, xRaw uint8) bool {
		k := float64(kRaw%60) + 5
		x := k*1.05 + float64(xRaw) // X > K
		dc := DCTCPDF{K: k}
		numeric := NumericDF(x, steps, func(th float64) float64 {
			if x*math.Sin(th) >= k {
				return 1
			}
			return 0
		})
		return cmplx.Abs(dc.Eval(x)-numeric) < 5e-3*cmplx.Abs(dc.Eval(x))+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDTDFMatchesNumericFourier(t *testing.T) {
	// DT marking waveform for X·sin(θ): ON from the rising crossing of
	// K1 (θ = arcsin K1/X) to the falling crossing of K2
	// (θ = π − arcsin K2/X).
	k1, k2 := 30.0, 50.0
	df := DTDCTCPDF{K1: k1, K2: k2}
	for _, x := range []float64{55, 70, 100, 300} {
		phi1 := math.Asin(k1 / x)
		phi2 := math.Pi - math.Asin(k2/x)
		numeric := NumericDF(x, 400000, func(th float64) float64 {
			if th >= phi1 && th <= phi2 {
				return 1
			}
			return 0
		})
		if cmplx.Abs(df.Eval(x)-numeric) > 1e-3*cmplx.Abs(df.Eval(x)) {
			t.Fatalf("X=%v: closed form %v vs numeric %v", x, df.Eval(x), numeric)
		}
	}
}

func TestNumericDFMinSteps(t *testing.T) {
	// nSteps below the floor is clamped, not an error.
	got := NumericDF(10, 1, func(float64) float64 { return 1 })
	// A constant relay has no fundamental: both components ~0.
	if cmplx.Abs(got) > 1e-9 {
		t.Fatalf("constant waveform DF = %v, want ~0", got)
	}
}

func TestAnalyzeStabilityOnsets(t *testing.T) {
	dc := DCTCPDF{K: 40}
	dt := DTDCTCPDF{K1: 30, K2: 50}
	// DCTCP: stable at N=10, oscillating at N=60 (the paper's Fig. 9).
	v10, err := Analyze(paperPlant(10), dc)
	if err != nil {
		t.Fatal(err)
	}
	if !v10.Stable {
		t.Fatal("DCTCP at N=10 should be stable")
	}
	v60, err := Analyze(paperPlant(60), dc)
	if err != nil {
		t.Fatal(err)
	}
	if v60.Stable {
		t.Fatal("DCTCP at N=60 should oscillate")
	}
	if v60.Cycle.Amplitude < 40 {
		t.Fatalf("predicted amplitude %v below threshold K", v60.Cycle.Amplitude)
	}
	if v60.Cycle.PeriodSeconds() <= 0 {
		t.Fatal("period must be positive")
	}
	// DT-DCTCP is still stable at N=60 and oscillates by N=90.
	d60, err := Analyze(paperPlant(60), dt)
	if err != nil {
		t.Fatal(err)
	}
	if !d60.Stable {
		t.Fatal("DT-DCTCP at N=60 should still be stable")
	}
	d90, err := Analyze(paperPlant(90), dt)
	if err != nil {
		t.Fatal(err)
	}
	if d90.Stable {
		t.Fatal("DT-DCTCP at N=90 should oscillate")
	}
}

func TestAnalyzeAmplitudeGrowsWithN(t *testing.T) {
	dc := DCTCPDF{K: 40}
	prev := 0.0
	for _, n := range []float64{45, 60, 80, 100} {
		v, err := Analyze(paperPlant(n), dc)
		if err != nil {
			t.Fatal(err)
		}
		if v.Stable {
			t.Fatalf("N=%v unexpectedly stable", n)
		}
		if v.Cycle.Amplitude <= prev {
			t.Fatalf("amplitude should grow with N: N=%v gives %v after %v",
				n, v.Cycle.Amplitude, prev)
		}
		prev = v.Cycle.Amplitude
	}
}

func TestAnalyzeInvalidPlant(t *testing.T) {
	if _, err := Analyze(Plant{}, DCTCPDF{K: 40}); err == nil {
		t.Fatal("invalid plant accepted")
	}
}

func TestCriticalNOrdering(t *testing.T) {
	base := paperPlant(0) // N filled by CriticalN
	ndc, err := CriticalN(base, DCTCPDF{K: 40}, 2, 150)
	if err != nil {
		t.Fatal(err)
	}
	ndt, err := CriticalN(base, DTDCTCPDF{K1: 30, K2: 50}, 2, 150)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 9 story: both onsets are in the tens of flows and
	// DT-DCTCP's comes later.
	if ndc < 10 || ndc > 100 {
		t.Fatalf("DCTCP critical N = %d, want tens of flows", ndc)
	}
	if ndt <= ndc {
		t.Fatalf("DT-DCTCP critical N (%d) must exceed DCTCP's (%d)", ndt, ndc)
	}
}

func TestCriticalNStableEverywhere(t *testing.T) {
	// With 1500-byte packets (C ≈ 833k pkts/s) the same formulas predict
	// stability across the whole range — the unit-sensitivity note in
	// DESIGN.md.
	base := Plant{C: 10e9 / 8 / 1500, R0: 1e-4, G: 1.0 / 16}
	n, err := CriticalN(base, DCTCPDF{K: 40}, 2, 120)
	if err != nil {
		t.Fatal(err)
	}
	if n != 121 {
		t.Fatalf("CriticalN = %d, want 121 (stable everywhere)", n)
	}
}

func TestCriticalNAlreadyUnstable(t *testing.T) {
	n, err := CriticalN(paperPlant(0), DCTCPDF{K: 40}, 100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("CriticalN = %d, want 100 (unstable at range start)", n)
	}
}

func TestCriticalNBadRange(t *testing.T) {
	if _, err := CriticalN(paperPlant(0), DCTCPDF{K: 40}, 0, 5); err == nil {
		t.Fatal("bad range accepted")
	}
	if _, err := CriticalN(paperPlant(0), DCTCPDF{K: 40}, 10, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
}

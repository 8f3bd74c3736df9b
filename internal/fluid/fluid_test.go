package fluid

import (
	"math"
	"testing"
	"testing/quick"
)

// paperConfig returns the paper's simulation parameters: 10 Gbps of
// 1500-byte packets (C ≈ 833333 pkts/s), 100 µs propagation RTT, K = 40,
// g = 1/16.
func paperConfig(n float64, law MarkingLaw) Config {
	return Config{
		N:           n,
		C:           10e9 / 8 / 1500,
		D:           100e-6,
		G:           1.0 / 16,
		Law:         law,
		RTTRefQueue: 40,
		Duration:    0.2,
	}
}

func TestMarkingLaws(t *testing.T) {
	st := SingleThreshold{K: 40}
	if st.P(39, 0) != 0 || st.P(41, 0) != 1 {
		t.Fatal("single threshold law wrong")
	}
	if st.Name() != "dctcp-single" {
		t.Fatal("name")
	}
	dt := DoubleThreshold{K1: 30, K2: 50}
	tests := []struct {
		q, qdot float64
		want    float64
	}{
		{29, +1, 0}, // rising below K1
		{31, +1, 1}, // rising above K1
		{45, +1, 1}, // rising between: threshold is K1
		{45, -1, 0}, // falling between: threshold is K2
		{51, -1, 1}, // falling above K2
		{25, -1, 0}, // falling below both
	}
	for _, tt := range tests {
		if got := dt.P(tt.q, tt.qdot); got != tt.want {
			t.Errorf("DT.P(%v, %v) = %v, want %v", tt.q, tt.qdot, got, tt.want)
		}
	}
	if dt.Name() != "dt-dctcp" {
		t.Fatal("name")
	}
}

func TestOperatingPointMatchesClosedForm(t *testing.T) {
	cfg := paperConfig(10, SingleThreshold{K: 40})
	w0, a0 := cfg.OperatingPoint()
	r0 := cfg.R0()
	if math.Abs(r0-(100e-6+40/cfg.C)) > 1e-12 {
		t.Fatalf("R0 = %v", r0)
	}
	wantW0 := r0 * cfg.C / 10
	if math.Abs(w0-wantW0) > 1e-9 {
		t.Fatalf("W0 = %v, want %v", w0, wantW0)
	}
	if math.Abs(a0-math.Sqrt(2/wantW0)) > 1e-12 {
		t.Fatalf("alpha0 = %v", a0)
	}
}

func TestSolveRejectsInvalidConfig(t *testing.T) {
	bad := []Config{
		{},
		{N: 10, C: 1000, Duration: 1},        // no law
		{N: 10, Law: SingleThreshold{K: 40}}, // no C, no duration
		{N: -1, C: 1, Law: SingleThreshold{}, Duration: 1},
	}
	for i, cfg := range bad {
		if _, err := Solve(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDCTCPFluidConvergesNearThreshold(t *testing.T) {
	// Small N: the paper's analysis says DCTCP is stable for N ≤ ~50, so
	// the fluid queue should settle in a bounded band around K.
	res, err := Solve(paperConfig(10, SingleThreshold{K: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueMean < 10 || res.QueueMean > 90 {
		t.Fatalf("steady queue mean %v, want near K=40", res.QueueMean)
	}
	if res.QueueAmplitude > 40 {
		t.Fatalf("amplitude %v too large for N=10", res.QueueAmplitude)
	}
	if res.Queue.Len() == 0 || res.Window.Len() == 0 || res.Alpha.Len() == 0 {
		t.Fatal("missing series")
	}
}

func TestFluidWindowNearOperatingPoint(t *testing.T) {
	cfg := paperConfig(10, SingleThreshold{K: 40})
	res, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w0, _ := cfg.OperatingPoint()
	// Mean window over the tail should be near W0 = R0·C/N.
	mean, _, _, _ := res.Window.Summary()
	if mean < 0.5*w0 || mean > 1.5*w0 {
		t.Fatalf("window mean %v, want near %v", mean, w0)
	}
}

// The paper's headline, in the fluid model's oscillatory regime (N ≤ ~60;
// beyond that the continuous model saturates into a marked-always
// equilibrium with q₀ = 2N − CD > K and stops switching — the per-RTT
// impulsive window cuts that keep the real system oscillating at large N
// live in the packet simulator, not in Eqs. 1–3): DCTCP's limit-cycle
// amplitude grows with N, and DT-DCTCP's stays well below DCTCP's.
func TestOscillationGrowsWithNAndDTIsSmaller(t *testing.T) {
	amp := func(n float64, law MarkingLaw) float64 {
		res, err := Solve(paperConfig(n, law))
		if err != nil {
			t.Fatal(err)
		}
		return res.QueueAmplitude
	}
	dcSmall := amp(10, SingleThreshold{K: 40})
	dcMid := amp(40, SingleThreshold{K: 40})
	if dcMid <= dcSmall {
		t.Fatalf("DCTCP amplitude should grow with N: N=10 → %v, N=40 → %v", dcSmall, dcMid)
	}
	for _, n := range []float64{10, 20, 40} {
		dc := amp(n, SingleThreshold{K: 40})
		dt := amp(n, DoubleThreshold{K1: 30, K2: 50})
		if dt >= dc {
			t.Fatalf("N=%v: DT-DCTCP amplitude %v should be below DCTCP's %v", n, dt, dc)
		}
	}
}

// At large N the continuous model leaves the relay regime: the saturated
// equilibrium q₀ = 2N − C·D (with α → 1, W → 2) exists above K and is
// stable, so the tail amplitude collapses. Pin that behaviour so a future
// integrator change that silently alters the regime boundary is caught.
func TestSaturatedEquilibriumAtLargeN(t *testing.T) {
	cfg := paperConfig(100, SingleThreshold{K: 40})
	res, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantQ := 2*100 - cfg.C*cfg.D // ≈ 116.7 packets
	if math.Abs(res.QueueMean-wantQ) > 5 {
		t.Fatalf("saturated queue mean %v, want ≈ %v", res.QueueMean, wantQ)
	}
	if res.QueueAmplitude > 1 {
		t.Fatalf("amplitude %v, want ~0 in the saturated regime", res.QueueAmplitude)
	}
}

func TestBufferLimitCapsQueue(t *testing.T) {
	cfg := paperConfig(100, SingleThreshold{K: 40})
	cfg.BufferLimit = 60
	res, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, max := res.Queue.Summary()
	if max > 60+1e-9 {
		t.Fatalf("queue exceeded buffer limit: %v", max)
	}
}

// Property: state stays within physical bounds for any flow count and
// threshold in a broad range.
func TestPropertyStateBounded(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := float64(nRaw%100) + 1
		k := float64(kRaw%80) + 5
		cfg := paperConfig(n, SingleThreshold{K: k})
		cfg.RTTRefQueue = k
		cfg.Duration = 0.05
		res, err := Solve(cfg)
		if err != nil {
			return false
		}
		for _, p := range res.Alpha.Points() {
			if p.V < 0 || p.V > 1 {
				return false
			}
		}
		for _, p := range res.Queue.Points() {
			if p.V < 0 || math.IsNaN(p.V) {
				return false
			}
		}
		for _, p := range res.Window.Points() {
			if p.V < 1 || math.IsNaN(p.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: with no marking at all (threshold far above any reachable
// queue given a buffer cap just below it), the window grows monotonically —
// the additive-increase term is always positive.
func TestPropertyNoMarkingMeansWindowGrowth(t *testing.T) {
	cfg := paperConfig(10, SingleThreshold{K: 1e9})
	cfg.Duration = 0.02
	res, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Window.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].V < pts[i-1].V-1e-9 {
			t.Fatalf("window decreased without marking at t=%v", pts[i].T)
		}
	}
}

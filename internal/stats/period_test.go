package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sineSeries(period float64, n int, noise float64, rng *rand.Rand) *Series {
	s := NewSeries("sine")
	for i := 0; i < n; i++ {
		t := float64(i) * 0.001
		v := math.Sin(2*math.Pi*t/period) + 5
		if noise > 0 {
			v += noise * (rng.Float64() - 0.5)
		}
		s.Add(t, v)
	}
	return s
}

func TestEstimatePeriodPureSine(t *testing.T) {
	s := sineSeries(0.05, 2000, 0, nil)
	period, conf := EstimatePeriod(s)
	if math.Abs(period-0.05) > 0.003 {
		t.Fatalf("period = %v, want 0.05", period)
	}
	if conf < 0.5 {
		t.Fatalf("confidence = %v, want high for a pure sine", conf)
	}
}

func TestEstimatePeriodNoisySine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := sineSeries(0.08, 4000, 0.8, rng)
	period, conf := EstimatePeriod(s)
	if math.Abs(period-0.08) > 0.008 {
		t.Fatalf("period = %v, want 0.08", period)
	}
	if conf <= 0 {
		t.Fatalf("confidence = %v", conf)
	}
}

func TestEstimatePeriodSawtooth(t *testing.T) {
	// Queue traces are sawtooth-like, not sinusoidal; the estimator must
	// still find the fundamental.
	s := NewSeries("saw")
	const period = 0.02
	for i := 0; i < 4000; i++ {
		t := float64(i) * 0.0005
		phase := math.Mod(t, period) / period
		s.Add(t, 10*phase)
	}
	got, _ := EstimatePeriod(s)
	if math.Abs(got-period) > 0.002 {
		t.Fatalf("period = %v, want %v", got, period)
	}
}

func TestEstimatePeriodIrregularSampling(t *testing.T) {
	// Event-driven sampling: jittered timestamps around the same sine.
	rng := rand.New(rand.NewSource(9))
	s := NewSeries("sine")
	tNow := 0.0
	for tNow < 2.0 {
		tNow += 0.0005 + 0.0005*rng.Float64()
		s.Add(tNow, math.Sin(2*math.Pi*tNow/0.05))
	}
	period, _ := EstimatePeriod(s)
	if math.Abs(period-0.05) > 0.004 {
		t.Fatalf("period = %v, want 0.05", period)
	}
}

func TestEstimatePeriodDegenerateInputs(t *testing.T) {
	if p, _ := EstimatePeriod(nil); p != 0 {
		t.Fatal("nil series should give 0")
	}
	s := NewSeries("short")
	s.Add(0, 1)
	if p, _ := EstimatePeriod(s); p != 0 {
		t.Fatal("short series should give 0")
	}
	flat := NewSeries("flat")
	for i := 0; i < 100; i++ {
		flat.Add(float64(i), 7)
	}
	if p, _ := EstimatePeriod(flat); p != 0 {
		t.Fatal("constant series should give 0")
	}
	same := NewSeries("sametime")
	for i := 0; i < 100; i++ {
		same.Add(1, float64(i))
	}
	if p, _ := EstimatePeriod(same); p != 0 {
		t.Fatal("zero-span series should give 0")
	}
}

func TestEstimatePeriodWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewSeries("noise")
	for i := 0; i < 2000; i++ {
		s.Add(float64(i)*0.001, rng.Float64())
	}
	_, conf := EstimatePeriod(s)
	if conf > 0.4 {
		t.Fatalf("white noise got confidence %v; estimator is hallucinating periodicity", conf)
	}
}

// Property: the estimate is invariant to amplitude scaling and value
// offset.
func TestPropertyPeriodScaleInvariant(t *testing.T) {
	f := func(scaleRaw, offsetRaw uint8) bool {
		scale := 0.5 + float64(scaleRaw)/32
		offset := float64(offsetRaw)
		base := sineSeries(0.04, 2000, 0, nil)
		scaled := NewSeries("scaled")
		for _, p := range base.Points() {
			scaled.Add(p.T, p.V*scale+offset)
		}
		p1, _ := EstimatePeriod(base)
		p2, _ := EstimatePeriod(scaled)
		return math.Abs(p1-p2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodsKeepsFirstCycles(t *testing.T) {
	s := sineSeries(0.05, 2000, 0, nil) // 2 s, 40 periods
	got := s.Periods(10)
	first, last := got.At(0).T, got.At(got.Len()-1).T
	if first != 0 || math.Abs(last-0.5) > 0.03 {
		t.Fatalf("Periods(10) spans [%v, %v], want about [0, 0.5]", first, last)
	}
	flat := NewSeries("flat")
	for i := 0; i < 100; i++ {
		flat.Add(float64(i), 1)
	}
	if got := flat.Periods(10); got.Len() != flat.Len() {
		t.Fatalf("a series with no period was cut to %d samples", got.Len())
	}
}

// perturbedSine builds a queue-like trace: a noisy sine around level
// until faultStart, a backlog spike decaying from faultEnd, and the sine
// resuming once the backlog is gone.
func perturbedSine(period, level, faultStart, faultEnd, spike, decay float64, rng *rand.Rand) *Series {
	s := NewSeries("perturbed")
	for t := 0.0; t < faultStart+1.0; t += 0.001 {
		base := level + math.Sin(2*math.Pi*t/period)
		switch {
		case t < faultStart:
			s.Add(t, base+0.1*(rng.Float64()-0.5))
		case t < faultEnd:
			s.Add(t, spike) // queue pinned high during the outage
		default:
			// Exponential drain back to the oscillating baseline.
			residue := spike * math.Exp(-(t-faultEnd)/decay)
			s.Add(t, base+residue+0.1*(rng.Float64()-0.5))
		}
	}
	return s
}

// TestEstimatePeriodShortSeries pins the <16-point early-out boundary.
func TestEstimatePeriodShortSeries(t *testing.T) {
	s := NewSeries("short")
	for i := 0; i < 15; i++ {
		s.Add(float64(i), math.Sin(float64(i)))
	}
	if p, conf := EstimatePeriod(s); p != 0 || conf != 0 {
		t.Fatalf("15-point series gave period=%v conf=%v, want 0,0", p, conf)
	}
	// One more point crosses the threshold and the estimator must at
	// least run without claiming strong confidence in 16 samples.
	s.Add(15, math.Sin(15))
	if _, conf := EstimatePeriod(s); conf < 0 || conf > 1 {
		t.Fatalf("confidence %v out of range", conf)
	}
}

// TestEstimatePeriodPostPerturbationRelock: a window dominated by the
// drain after a perturbation finds nothing, a window past it finds the
// original period again.
func TestEstimatePeriodPostPerturbationRelock(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const period = 0.04
	s := perturbedSine(period, 5, 1.0, 1.15, 60, 0.03, rng)

	window := func(lo, hi float64) *Series {
		w := NewSeries("w")
		for i := 0; i < s.Len(); i++ {
			if p := s.At(i); p.T >= lo && p.T < hi {
				w.Add(p.T, p.V)
			}
		}
		return w
	}
	// Far past the perturbation the lock is back at the right period.
	p2, c2 := EstimatePeriod(window(1.5, 1.9))
	if math.Abs(p2-period) > 0.006 {
		t.Fatalf("post-perturbation window: period %v, want ≈ %v (conf %v)", p2, period, c2)
	}
	// A window dominated by the monotone drain must not report the
	// baseline period with comparable confidence.
	p1, c1 := EstimatePeriod(window(1.15, 1.3))
	if math.Abs(p1-period) < 0.004 && c1 >= c2 {
		t.Fatalf("drain window locked onto %v (conf %v ≥ %v); windows cannot discriminate recovery", p1, c1, c2)
	}
}

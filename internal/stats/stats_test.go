package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", w.Variance())
	}
	if !almostEqual(w.StdDev(), 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", w.StdDev())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

// Property: Welford agrees with the naive two-pass formulas.
func TestPropertyWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var w Welford
		for i, r := range raw {
			xs[i] = float64(r) / 16
			w.Add(xs[i])
		}
		return almostEqual(w.Mean(), Mean(xs), 1e-9) &&
			almostEqual(w.StdDev(), StdDev(xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedConstantSignal(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 5)
	tw.Observe(3, 5)
	tw.Finish(10)
	if !almostEqual(tw.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", tw.Mean())
	}
	if tw.StdDev() != 0 {
		t.Fatalf("StdDev = %v, want 0", tw.StdDev())
	}
	if tw.totalT != 10 {
		t.Fatalf("total interval = %v, want 10", tw.totalT)
	}
}

func TestTimeWeightedStepSignal(t *testing.T) {
	// Value 0 for 1s, then 10 for 1s: mean 5, variance 25.
	var tw TimeWeighted
	tw.Observe(0, 0)
	tw.Observe(1, 10)
	tw.Finish(2)
	if !almostEqual(tw.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", tw.Mean())
	}
	if !almostEqual(tw.Variance(), 25, 1e-12) {
		t.Fatalf("Variance = %v, want 25", tw.Variance())
	}
	if tw.Min() != 0 || tw.Max() != 10 {
		t.Fatalf("Min/Max = %v/%v", tw.Min(), tw.Max())
	}
}

func TestTimeWeightedWeightsByHoldingTime(t *testing.T) {
	// 2 held for 9s, 20 held for 1s: mean = (18+20)/10.
	var tw TimeWeighted
	tw.Observe(0, 2)
	tw.Observe(9, 20)
	tw.Finish(10)
	if !almostEqual(tw.Mean(), 3.8, 1e-12) {
		t.Fatalf("Mean = %v, want 3.8", tw.Mean())
	}
}

func TestTimeWeightedNoSamples(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean() != 0 || tw.Variance() != 0 {
		t.Fatal("empty time-weighted accumulator should report zeros")
	}
}

// Property: for a piecewise-constant signal, the time-weighted mean equals
// the Riemann sum computed directly.
func TestPropertyTimeWeightedMatchesRiemann(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var tw TimeWeighted
		sum := 0.0
		for i, v := range vals {
			tw.Observe(float64(i), float64(v))
			sum += float64(v) // each value held for 1s
		}
		tw.Finish(float64(len(vals)))
		return almostEqual(tw.Mean(), sum/float64(len(vals)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.1, 1.4},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) should be NaN")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

// Property: quantile is monotonic in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []int8, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(qa) / 255
		b := float64(qb) / 255
		if a > b {
			a, b = b, a
		}
		va, vb := Quantile(xs, a), Quantile(xs, b)
		lo, hi := Quantile(xs, 0), Quantile(xs, 1)
		return va <= vb+1e-9 && va >= lo-1e-9 && vb <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDevEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(StdDev(nil)) {
		t.Fatal("Mean/StdDev of empty slice should be NaN")
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("queue")
	s.Add(0, 1)
	s.Add(1, 3)
	s.Add(2, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if p := s.At(1); p.T != 1 || p.V != 3 {
		t.Fatalf("At(1) = %+v", p)
	}
	mean, sd, min, max := s.Summary()
	if !almostEqual(mean, 3, 1e-12) || min != 1 || max != 5 {
		t.Fatalf("Summary = %v %v %v %v", mean, sd, min, max)
	}
	pts := s.Points()
	pts[0].V = 99
	if s.At(0).V != 1 {
		t.Fatal("Points returned a live reference")
	}
}

func TestSeriesWriteCSV(t *testing.T) {
	s := NewSeries("q,len")
	s.Add(0.5, 2)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.HasPrefix(got, "t,\"q,len\"\n") {
		t.Fatalf("CSV header = %q", got)
	}
	if !strings.Contains(got, "0.5,2\n") {
		t.Fatalf("CSV body = %q", got)
	}
}

func TestSeriesAsciiPlot(t *testing.T) {
	s := NewSeries("q")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i%4))
	}
	plot := s.AsciiPlot(20, 5)
	if !strings.Contains(plot, "*") {
		t.Fatalf("plot has no marks:\n%s", plot)
	}
	if got := s.AsciiPlot(1, 1); got != "" {
		t.Fatalf("degenerate plot should be empty, got %q", got)
	}
	empty := NewSeries("e")
	if got := empty.AsciiPlot(10, 10); got != "" {
		t.Fatalf("empty-series plot should be empty, got %q", got)
	}
}

func TestJainFairness(t *testing.T) {
	if got := JainFairness([]float64{5, 5, 5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("even split = %v, want 1", got)
	}
	// One flow hogging everything: index = 1/n.
	if got := JainFairness([]float64{10, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("hog = %v, want 0.25", got)
	}
	if !math.IsNaN(JainFairness(nil)) || !math.IsNaN(JainFairness([]float64{0, 0})) {
		t.Fatal("degenerate inputs should be NaN")
	}
}

// Property: Jain's index is scale-invariant and bounded in [1/n, 1].
func TestPropertyJainBounds(t *testing.T) {
	f := func(raw []uint8, scale uint8) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r))
		}
		j := JainFairness(xs)
		if math.IsNaN(j) {
			return true
		}
		n := float64(len(xs))
		if j < 1/n-1e-9 || j > 1+1e-9 {
			return false
		}
		k := 1 + float64(scale)/16
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * k
		}
		return almostEqual(j, JainFairness(scaled), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

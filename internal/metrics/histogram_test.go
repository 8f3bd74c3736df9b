package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomValues draws n values spanning below, inside, and above the
// bucket range, from a fixed-seed source so failures reproduce.
func randomValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*140 - 20 // [-20, 120) around bounds [0, 100]
	}
	return out
}

func testBounds() []float64 { return LinearBounds(10, 10, 10) } // 10..100

// TestBucketCountsSumToCount: property 1 — for any observation stream,
// per-bucket counts (overflow included) sum to the observation count.
func TestBucketCountsSumToCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram(testBounds())
		vals := randomValues(rng, 1+rng.Intn(400))
		for _, v := range vals {
			h.Observe(v)
		}
		var sum uint64
		for _, c := range h.Counts() {
			sum += c
		}
		if sum != h.Count() || sum != uint64(len(vals)) {
			t.Fatalf("trial %d: bucket sum %d, Count %d, observed %d", trial, sum, h.Count(), len(vals))
		}
	}
}

// TestQuantileMonotone: property 2 — Quantile is nondecreasing in q and
// clamped to the observed extrema.
func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram(testBounds())
		for _, v := range randomValues(rng, 1+rng.Intn(300)) {
			h.Observe(v)
		}
		prev := h.Quantile(0)
		if prev != h.Min() {
			t.Fatalf("Quantile(0) = %v, want Min %v", prev, h.Min())
		}
		for q := 0.01; q <= 1.0; q += 0.01 {
			cur := h.Quantile(q)
			if cur < prev {
				t.Fatalf("trial %d: Quantile(%v) = %v < Quantile(prev) = %v", trial, q, cur, prev)
			}
			if cur < h.Min() || cur > h.Max() {
				t.Fatalf("trial %d: Quantile(%v) = %v outside [%v, %v]", trial, q, cur, h.Min(), h.Max())
			}
			prev = cur
		}
		if got := h.Quantile(1); got != h.Max() {
			t.Fatalf("Quantile(1) = %v, want Max %v", got, h.Max())
		}
	}
}

// TestMergeEqualsConcatenation: property 3 — merging two histograms is
// exactly the histogram of the concatenated streams.
func TestMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := NewHistogram(testBounds())
		b := NewHistogram(testBounds())
		both := NewHistogram(testBounds())
		va := randomValues(rng, rng.Intn(200))
		vb := randomValues(rng, rng.Intn(200))
		for _, v := range va {
			a.Observe(v)
			both.Observe(v)
		}
		for _, v := range vb {
			b.Observe(v)
			both.Observe(v)
		}
		a.Merge(b)
		// Sum is a float accumulation: merging adds two partial sums,
		// so it may differ from the sequential sum in the last ulp.
		sumDiff := math.Abs(a.Sum() - both.Sum())
		if a.Count() != both.Count() || sumDiff > 1e-9*math.Abs(both.Sum()) ||
			a.Min() != both.Min() || a.Max() != both.Max() {
			t.Fatalf("trial %d: merged aggregate differs: count %d/%d sum %v/%v min %v/%v max %v/%v",
				trial, a.Count(), both.Count(), a.Sum(), both.Sum(), a.Min(), both.Min(), a.Max(), both.Max())
		}
		ac, bc := a.Counts(), both.Counts()
		for i := range ac {
			if ac[i] != bc[i] {
				t.Fatalf("trial %d: bucket %d: merged %d, concat %d", trial, i, ac[i], bc[i])
			}
		}
	}
}

func TestMergeEmptyIntoEmpty(t *testing.T) {
	a, b := NewHistogram(testBounds()), NewHistogram(testBounds())
	a.Merge(b)
	if a.Count() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("empty merge changed state: %+v", a)
	}
}

func TestMergeMismatchedBoundsPanics(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	mustPanic(t, "different bucket layouts", func() { a.Merge(NewHistogram([]float64{1, 2, 3})) })
	mustPanic(t, "different bucket bounds", func() { a.Merge(NewHistogram([]float64{1, 3})) })
}

func TestObserveBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Observe(10) // Prometheus semantics: v ≤ bound → first bucket
	h.Observe(10.5)
	h.Observe(20)
	h.Observe(21) // overflow
	c := h.Counts()
	if c[0] != 1 || c[1] != 2 || c[2] != 1 {
		t.Fatalf("edge placement wrong: %v", c)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram(testBounds())
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-observation Quantile(%v) = %v, want 42", q, got)
		}
	}
	if h.Mean() != 42 {
		t.Fatalf("Mean = %v, want 42", h.Mean())
	}
}

func TestNewHistogramValidation(t *testing.T) {
	mustPanic(t, "at least one", func() { NewHistogram(nil) })
	mustPanic(t, "not strictly increasing", func() { NewHistogram([]float64{1, 1}) })
	mustPanic(t, "non-finite", func() { NewHistogram([]float64{1, 2, math.Inf(1)}) })
}

func TestBoundsHelpers(t *testing.T) {
	lin := LinearBounds(5, 5, 4)
	for i, want := range []float64{5, 10, 15, 20} {
		if lin[i] != want {
			t.Fatalf("LinearBounds[%d] = %v, want %v", i, lin[i], want)
		}
	}
	exp := ExponentialBounds(1, 2, 5)
	for i, want := range []float64{1, 2, 4, 8, 16} {
		if exp[i] != want {
			t.Fatalf("ExponentialBounds[%d] = %v, want %v", i, exp[i], want)
		}
	}
	mustPanic(t, "LinearBounds", func() { LinearBounds(0, 0, 3) })
	mustPanic(t, "ExponentialBounds", func() { ExponentialBounds(1, 1, 3) })
}

// bucket must place every value where the binary search does, whether it
// computed the index (evenly spaced bounds) or searched (anything else):
// values on, just below, between and above every bound, far outside, ±Inf
// and NaN, over linear layouts whose width is and is not exactly
// representable, exponential layouts, and single-bound histograms.
func TestBucketEqualsBinarySearch(t *testing.T) {
	layouts := map[string][]float64{
		"linear unit":      LinearBounds(1, 1, 64),
		"linear fabric":    LinearBounds(100.0/64, 100.0/64, 64),
		"linear tenth":     LinearBounds(0.1, 0.1, 50),
		"linear negative":  LinearBounds(-7.3, 0.7, 33),
		"linear two":       {10, 20},
		"single":           {5},
		"exponential":      ExponentialBounds(10e-6, 1.5, 36),
		"nearly linear":    {1, 2, 3.0000001, 4},
		"irregular":        {0.1, 0.5, 1, 2.5, 5, 10},
		"linear then jump": {1, 2, 3, 4, 100},
	}
	for name, bounds := range layouts {
		h := NewHistogram(bounds)
		if linear := name[:6] == "linear" && name != "linear then jump"; linear != (h.invStep > 0) {
			t.Errorf("%s: invStep = %g", name, h.invStep)
		}
		values := []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1e300, 1e300, 0, math.Copysign(0, -1)}
		for i, b := range bounds {
			values = append(values, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
			if i > 0 {
				values = append(values, (b+bounds[i-1])/2, bounds[i-1]+(b-bounds[i-1])*0.999999)
			}
		}
		first, last := bounds[0], bounds[len(bounds)-1]
		span := last - first + 1
		values = append(values, first-span, first-0.5*span/float64(len(bounds)), last+0.5*span/float64(len(bounds)), last+span, last+1e6*span)
		for _, v := range values {
			if got, want := h.bucket(v), sort.SearchFloat64s(bounds, v); got != want {
				t.Errorf("%s: bucket(%v) = %d, binary search %d", name, v, got, want)
			}
		}
		// And through Observe: the counts of a histogram fed the values
		// equal counts made by the search.
		want := make([]uint64, len(bounds)+1)
		for _, v := range values {
			h.Observe(v)
			want[sort.SearchFloat64s(bounds, v)]++
		}
		for i, c := range h.Counts() {
			if c != want[i] {
				t.Errorf("%s: bucket %d counts %d, binary search %d", name, i, c, want[i])
			}
		}
	}
}

package flowgen

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseCDFTwoAndThreeColumn(t *testing.T) {
	c2, err := ParseCDFString("# comment\n1460 0.5\n\n29200 1.0  # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	c3, err := ParseCDFString("1460 1 0.5\n29200 2 1.0\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*CDF{c2, c3} {
		if len(c.sizes) != 2 || c.sizes[0] != 1460 || c.sizes[1] != 29200 {
			t.Fatalf("parsed sizes %v", c.sizes)
		}
	}
	if c2.Mean() != c3.Mean() {
		t.Fatalf("column forms disagree: %v vs %v", c2.Mean(), c3.Mean())
	}
}

func TestParseCDFRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"comments only":   "# nothing\n",
		"one column":      "1460\n",
		"four columns":    "1 2 3 4\n",
		"bad size":        "xyz 1.0\n",
		"bad prob":        "1460 one\n",
		"negative size":   "-5 1.0\n",
		"zero size":       "0 1.0\n",
		"huge size":       "1e30 1.0\n",
		"nan size":        "NaN 1.0\n",
		"prob above one":  "1460 1.5\n",
		"negative prob":   "1460 -0.1\n",
		"non-monotone sz": "2000 0.5\n1000 1.0\n",
		"duplicate size":  "2000 0.5\n2000 1.0\n",
		"decreasing cdf":  "1000 0.8\n2000 0.5\n",
		"mass short of 1": "1000 0.5\n2000 0.9\n",
		"zero mass":       "1000 0.0\n2000 0.0\n",
	}
	for name, body := range cases {
		if _, err := ParseCDFString(body); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
}

func TestSampleStaysInSupportAndIsDeterministic(t *testing.T) {
	c, err := BuiltinCDF(WebSearchSmall)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := int64(c.sizes[0]), int64(c.sizes[len(c.sizes)-1])
	draw := func(seed int64) []int64 {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int64, 1000)
		for i := range out {
			out[i] = c.Sample(rng)
			if out[i] < lo || out[i] > hi {
				t.Fatalf("sample %d outside [%d, %d]", out[i], lo, hi)
			}
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSampleMatchesMean(t *testing.T) {
	c, err := BuiltinCDF(WebSearchSmall)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(c.Sample(rng))
	}
	got, want := sum/n, c.Mean()
	if got < 0.95*want || got > 1.05*want {
		t.Fatalf("empirical mean %.0f vs analytic %.0f", got, want)
	}
}

func TestSampleSkipsZeroMassSegments(t *testing.T) {
	// The flat segment 2000→3000 carries no mass: 3000 must never be the
	// interpolation target, so no sample lands in (2000, 3000].
	c, err := ParseCDFString("1000 0.5\n2000 0.75\n3000 0.75\n4000 1.0\n")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		if v := c.Sample(rng); v > 2000 && v <= 3000 {
			t.Fatalf("sample %d fell inside a zero-mass segment", v)
		}
	}
}

func TestBuiltins(t *testing.T) {
	means := map[string][2]float64{
		WebSearch:      {0.9e6, 1.3e6},
		WebSearchSmall: {120e3, 200e3},
		DataMining:     {1e6, 4e6},
	}
	for name, bounds := range means {
		c, err := BuiltinCDF(name)
		if err != nil {
			t.Fatal(err)
		}
		if m := c.Mean(); m < bounds[0] || m > bounds[1] {
			t.Errorf("%s mean %.0f outside [%.0f, %.0f]", name, m, bounds[0], bounds[1])
		}
	}
	if _, err := BuiltinCDF("nope"); err == nil || !strings.Contains(err.Error(), "websearch") {
		t.Fatalf("unknown builtin error %v should list the known names", err)
	}
}

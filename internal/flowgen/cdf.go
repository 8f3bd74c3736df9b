// Package flowgen generates trace-driven datacenter workloads: flow
// sizes drawn from an empirical CDF, open-loop Poisson arrivals targeted
// at a fraction of the fabric's bisection bandwidth, and per-flow FCT
// recording bucketed small/medium/large.
//
// The whole trace — sizes, arrivals, source/destination pairs — is
// generated up front from the network construction engine's seeded
// source, before any endpoint exists: the generator never consumes
// run-time randomness.
package flowgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// CDF is an empirical flow-size distribution: strictly increasing sizes
// in bytes with nondecreasing cumulative probabilities ending at 1.
// Sampling inverts the CDF with piecewise-linear interpolation, which
// smooths the empirical step function between trace points; the mass at
// or below the first point collapses onto the first size.
type CDF struct {
	sizes []float64
	probs []float64
}

// ParseCDF reads the ns2-style flow-size trace format: one point per
// line, either "<size_bytes> <cdf>" or "<size_bytes> <id> <cdf>" (the
// middle column of three-column traces is ignored). '#' starts a
// comment; blank lines are skipped. Sizes must be positive and strictly
// increasing, probabilities nondecreasing within [0, 1], and the last
// probability must be exactly 1 so the distribution carries full mass.
func ParseCDF(r io.Reader) (*CDF, error) {
	c := &CDF{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("flowgen: line %d: want 2 or 3 columns, got %d", line, len(fields))
		}
		size, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("flowgen: line %d: bad size %q", line, fields[0])
		}
		prob, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("flowgen: line %d: bad probability %q", line, fields[len(fields)-1])
		}
		switch {
		case math.IsNaN(size) || math.IsNaN(prob):
			return nil, fmt.Errorf("flowgen: line %d: NaN", line)
		case size < 1 || size > 1e15:
			return nil, fmt.Errorf("flowgen: line %d: size %v outside [1, 1e15] bytes", line, size)
		case len(c.sizes) > 0 && size <= c.sizes[len(c.sizes)-1]:
			return nil, fmt.Errorf("flowgen: line %d: sizes must be strictly increasing", line)
		case prob < 0 || prob > 1:
			return nil, fmt.Errorf("flowgen: line %d: probability %v outside [0, 1]", line, prob)
		case len(c.probs) > 0 && prob < c.probs[len(c.probs)-1]:
			return nil, fmt.Errorf("flowgen: line %d: CDF must be nondecreasing", line)
		}
		c.sizes = append(c.sizes, size)
		c.probs = append(c.probs, prob)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flowgen: %w", err)
	}
	if len(c.sizes) == 0 {
		return nil, fmt.Errorf("flowgen: empty CDF")
	}
	if c.probs[len(c.probs)-1] != 1 {
		return nil, fmt.Errorf("flowgen: CDF ends at %v, want 1 (distribution must carry full mass)",
			c.probs[len(c.probs)-1])
	}
	return c, nil
}

// ParseCDFString parses an in-memory trace.
func ParseCDFString(s string) (*CDF, error) { return ParseCDF(strings.NewReader(s)) }

// Sample draws one flow size in bytes by inverting the CDF at a uniform
// variate, interpolating linearly inside each segment. Flat segments
// (zero probability mass) are never selected; draws at or below the
// first point return the first size.
func (c *CDF) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	if u <= c.probs[0] {
		return int64(c.sizes[0])
	}
	// First point with prob >= u; its predecessor has prob < u, so the
	// segment has positive mass and the interpolation is well defined.
	lo, hi := 0, len(c.probs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.probs[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	frac := (u - c.probs[i-1]) / (c.probs[i] - c.probs[i-1])
	size := c.sizes[i-1] + frac*(c.sizes[i]-c.sizes[i-1])
	if size < 1 {
		size = 1
	}
	return int64(size)
}

// Mean returns the distribution's expected flow size in bytes under the
// same interpolation Sample uses: probs[0] mass at the first size, then
// uniformly spread mass inside each segment.
func (c *CDF) Mean() float64 {
	mean := c.probs[0] * c.sizes[0]
	for i := 1; i < len(c.sizes); i++ {
		mass := c.probs[i] - c.probs[i-1]
		mean += mass * (c.sizes[i-1] + c.sizes[i]) / 2
	}
	return mean
}

// Builtin trace names.
const (
	// WebSearch is the DCTCP-paper web-search workload (Alizadeh et al.
	// Fig. 4, packet counts scaled to 1460-byte segments): a mix from
	// single-segment queries up to ~30 MB background transfers, mean
	// ≈ 1.1 MB. Faithful but expensive — one run schedules hundreds of
	// events per flow megabyte.
	WebSearch = "websearch"
	// WebSearchSmall truncates the web-search mix at 1.2 MB (mean
	// ≈ 160 KB), keeping the shape of the short-flow region while
	// capping per-run event counts; `dtsim fabric` defaults to it so a
	// 50k-flow run stays in seconds, not hours.
	WebSearchSmall = "websearch-small"
	// DataMining is the heavy-tailed data-mining mix (most flows under
	// 10 KB, most bytes in multi-MB transfers).
	DataMining = "datamining"
)

// Builtin trace bodies double as format examples; see ParseCDF.
var builtins = map[string]string{
	WebSearch: `# DCTCP-paper web search flow sizes (bytes, cdf)
1460     0.15
4380     0.25
10220    0.45
51100    0.60
102200   0.70
511000   0.80
1022000  0.90
10220000 0.97
29200000 1.00
`,
	WebSearchSmall: `# Truncated web-search mix for event-budgeted runs (bytes, cdf)
1460    0.00
8760    0.15
18980   0.20
27740   0.30
48180   0.40
77380   0.53
150000  0.70
300000  0.85
600000  0.95
1200000 1.00
`,
	DataMining: `# Heavy-tailed data mining mix (bytes, id, cdf) — 3-column form
100       1  0.10
1460      2  0.40
10000     3  0.55
100000    4  0.75
1000000   5  0.90
10000000  6  0.97
100000000 7  1.00
`,
}

// BuiltinCDF returns a named builtin distribution, or an error listing
// the known names.
func BuiltinCDF(name string) (*CDF, error) {
	body, ok := builtins[name]
	if !ok {
		return nil, fmt.Errorf("flowgen: unknown CDF %q (builtins: %s, %s, %s; or pass a trace file)",
			name, WebSearch, WebSearchSmall, DataMining)
	}
	c, err := ParseCDFString(body)
	if err != nil {
		panic(fmt.Sprintf("flowgen: builtin %q does not parse: %v", name, err))
	}
	return c, nil
}

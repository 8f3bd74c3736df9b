package stats

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Point is one sample of a time series.
type Point struct {
	// T is the sample instant in seconds.
	T float64
	// V is the sampled value.
	V float64
}

// Series is an append-only time series of float samples. It is the common
// currency between experiment runners and output writers.
type Series struct {
	// Name labels the series in CSV and plot output.
	Name string

	points []Point
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.points = append(s.points, Point{T: t, V: v}) }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.points[i] }

// Points returns a copy of the samples.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// After returns a new series holding the samples at instants ≥ t. It is
// the standard way to isolate the steady-state tail of an experiment
// trace from its warmup transient before period or amplitude estimation.
func (s *Series) After(t float64) *Series {
	out := NewSeries(s.Name)
	for _, p := range s.points {
		if p.T >= t {
			out.points = append(out.points, p)
		}
	}
	return out
}

// Hash64 returns an FNV-1a checksum over the exact bit patterns of every
// sample (T then V, little-endian float64 bits). Two series hash equal
// iff they are sample-for-sample bit-identical, which makes the checksum
// a compact determinism witness for golden-run digests: any drift in
// event ordering, RNG consumption, or float arithmetic shows up as a
// different hash.
func (s *Series) Hash64() uint64 {
	var h Hash
	for _, p := range s.points {
		h.Float(p.T)
		h.Float(p.V)
	}
	return h.Sum64()
}

// Summary computes simple statistics of the sampled values.
func (s *Series) Summary() (mean, sd, min, max float64) {
	var w Welford
	for _, p := range s.points {
		w.Add(p.V)
	}
	return w.Mean(), w.StdDev(), w.Min(), w.Max()
}

// WriteCSV writes "t,value" rows with a header naming the series.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t,%s\n", csvEscape(s.Name)); err != nil {
		return err
	}
	for _, p := range s.points {
		if _, err := fmt.Fprintf(w, "%s,%s\n",
			strconv.FormatFloat(p.T, 'g', -1, 64),
			strconv.FormatFloat(p.V, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Periods returns the samples of the first n oscillation periods, as
// EstimatePeriod measures them, so that a plot resolves single cycles
// instead of packing hundreds into a solid block; all of them when s has
// no credible period.
func (s *Series) Periods(n int) *Series {
	period, _ := EstimatePeriod(s)
	out := NewSeries(s.Name)
	for _, p := range s.points {
		if period <= 0 || p.T < s.points[0].T+float64(n)*period {
			out.points = append(out.points, p)
		}
	}
	return out
}

// AsciiPlot renders the series as a crude terminal plot with the given
// width and height in characters. It exists so cmd tools can show a queue
// trace without any plotting dependency.
func (s *Series) AsciiPlot(width, height int) string {
	if len(s.points) == 0 || width < 2 || height < 2 {
		return ""
	}
	minT, maxT := s.points[0].T, s.points[len(s.points)-1].T
	_, _, minV, maxV := s.Summary()
	if maxT == minT {
		maxT = minT + 1
	}
	if maxV == minV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range s.points {
		x := int((p.T - minT) / (maxT - minT) * float64(width-1))
		y := int((p.V - minV) / (maxV - minV) * float64(height-1))
		row := height - 1 - y
		grid[row][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%.3g .. %.3g]\n", s.Name, minV, maxV)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "t: %.4gs .. %.4gs\n", minT, maxT)
	return b.String()
}

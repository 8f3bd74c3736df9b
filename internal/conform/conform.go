// Package conform cross-validates the repo's three independent
// machineries against each other: the packet-level simulator
// (internal/netsim + internal/tcp, driven through core.RunDumbbell), the
// Alizadeh fluid model (internal/fluid), and the describing-function
// limit-cycle analysis (internal/control). The paper's claims rest on
// these agreeing — the analysis predicts the oscillation the simulator
// measures, the fluid model reproduces its mechanism — yet each is a
// separate implementation that can drift independently. This package
// turns the paper's cross-checks into permanent scenario tables with
// declared tolerances, plus a golden-run digest suite that pins the
// simulator's determinism byte-for-byte.
//
// One harness runs every grid: the paper grid (paper.go), the hybrid
// co-simulation against its packet reference (hybrid.go) and the
// protocol & switch zoo (zoo.go) build their checks from the same
// constructors, report through the same Report, and are listed in one
// grid table (Grids) that RunGrid runs.
//
// Two parameter units are deliberate (DESIGN.md, judgment call 1): the
// fluid model integrates in the *physical* packet unit (C = rate /
// packet size), so its queue trajectory is directly comparable to the
// simulator's; the describing-function analysis uses the *paper's*
// 1000-bit packet unit, the only unit under which Fig. 9's onsets come
// out of Eqs. (19)/(24).
package conform

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
)

// Check is one pass/fail (or skipped) agreement assertion.
type Check struct {
	// Name identifies the comparison (e.g. "queue-mean/sim-vs-fluid").
	Name string `json:"name"`
	// Got and Ref are the compared values (candidate first). A measured
	// zero is reported like any other value.
	Got float64 `json:"got"`
	Ref float64 `json:"ref"`
	// Detail states the tolerance the comparison was held to.
	Detail string `json:"detail"`
	// Pass reports the verdict; meaningless when Skipped is set.
	Pass bool `json:"pass"`
	// Skipped, when non-empty, says why the comparison does not apply
	// to this scenario (e.g. no credible periodicity to compare).
	Skipped string `json:"skipped,omitempty"`
}

// The check constructors, one per comparison shape. Each takes the reason
// the comparison does not apply to the scenario, or "" when it does. A
// skipped check keeps its Got and Ref but carries no detail and no
// verdict, so a grid point can never pass vacuously without saying so.

// holds checks a bare predicate; detail states what it asserts.
func holds(name string, got, ref float64, pass bool, detail, skip string) Check {
	if skip != "" {
		return Check{Name: name, Got: got, Ref: ref, Skipped: skip}
	}
	return Check{Name: name, Got: got, Ref: ref, Detail: detail, Pass: pass}
}

// ratio checks got/ref ∈ [lo, hi].
func ratio(name string, got, ref, lo, hi float64, skip string) Check {
	r := got / ref
	return holds(name, got, ref, r >= lo && r <= hi,
		fmt.Sprintf("ratio %.2f in [%.2f, %.2f]", r, lo, hi), skip)
}

// within checks |got − ref| ≤ abs + rel·ref, in packets.
func within(name string, got, ref, abs, rel float64, skip string) Check {
	diff, band := math.Abs(got-ref), abs+rel*ref
	return holds(name, got, ref, diff <= band,
		fmt.Sprintf("|Δ| = %.1f pkts ≤ %.1f", diff, band), skip)
}

// exact checks a == b; format renders the pair.
func exact(name string, got, ref float64, a, b uint64, format, skip string) Check {
	return holds(name, got, ref, a == b, fmt.Sprintf(format+" (exact)", a, b), skip)
}

// skipIf returns the formatted skip reason when cond holds, else "".
func skipIf(cond bool, format string, args ...any) string {
	if !cond {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// lowConfidence skips a period comparison whose side who has no credible
// periodicity: below floor the estimator's lag is noise, not a measurement.
func lowConfidence(who string, confidence, floor float64) string {
	return skipIf(confidence < floor, "%s periodicity confidence %.2f < %.2f", who, confidence, floor)
}

// tooSmall skips a ratio whose reference, in packets, is below floor.
func tooSmall(what string, ref, floor float64) string {
	return skipIf(ref < floor, "%s %.2f pkts too small for a ratio", what, ref)
}

// Report is the outcome of one grid point: what its machineries measured
// and how the cross-checks came out.
type Report struct {
	// Scenario names the grid point.
	Scenario string `json:"scenario"`
	// Obs holds the per-machinery measurements of a paper or hybrid
	// point; zoo points report their checks only.
	Obs any `json:"observation,omitempty"`
	// Checks are the agreement assertions, in a fixed order.
	Checks []Check `json:"checks"`
}

// Pass reports whether every non-skipped check passed.
func (r Report) Pass() bool { return len(r.Failures()) == 0 }

// Failures returns the non-skipped checks that failed.
func (r Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if c.Skipped == "" && !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Point is one grid point: a named run that measures its machineries and
// checks them against each other.
type Point struct {
	Name string
	run  func() (Report, error)
}

// Grid is one row of the grid table: a dtconform -grid value and its
// points.
type Grid struct {
	Name   string
	Points []Point
}

// Grids returns the grid table. Each full grid is followed by its quick
// smoke subset, drawn from it with the same declared tolerances.
func Grids() []Grid {
	paper, hybrid, zoo := paperGrid(), hybridGrid(), zooGrid()
	return []Grid{
		{"full", paper},
		// One stable and one oscillatory point per protocol (CI's smoke).
		{"quick", pick(paper, "dctcp-k40-n20", "dctcp-k40-n60", "dt3050-n20", "dt3050-n80")},
		{"hybrid", hybrid},
		// One point per protocol.
		{"hybrid-quick", pick(hybrid, "hyb-dctcp-k40-bg20", "hyb-dt3050-bg20")},
		{"zoo", zoo},
		// One point per family.
		{"zoo-quick", pick(zoo, "zoo-plus-vs-dt-incast-w16", "zoo-hull-g95-n20", "zoo-sharedbuf-single-port-limit")},
	}
}

// pick returns the named points of grid, in grid order.
func pick(grid []Point, names ...string) []Point {
	var out []Point
	for _, p := range grid {
		if slices.Contains(names, p.Name) {
			out = append(out, p)
		}
	}
	if len(out) != len(names) {
		panic(fmt.Sprintf("conform: %v names a point outside its grid", names))
	}
	return out
}

// RunGrid runs the points concurrently on up to workers goroutines
// (values < 1 mean GOMAXPROCS). Every point runs in private engines
// seeded only by its own configuration, so reports are byte-identical
// for any worker count and are returned in input order. An error is
// prefixed with the name of the point it came from, here and only here.
func RunGrid(ctx context.Context, points []Point, workers int) ([]Report, error) {
	return runner.Map(ctx, len(points), runner.Options{Workers: workers},
		func(_ context.Context, i int) (Report, error) {
			rep, err := points[i].run()
			if err != nil {
				return Report{}, fmt.Errorf("conform %s: %w", points[i].Name, err)
			}
			rep.Scenario = points[i].Name
			return rep, nil
		})
}

// dumbbell is the bottleneck every dumbbell-shaped scenario shares: Flows
// long-lived senders through one port.
type dumbbell struct {
	// Flows is N.
	Flows int
	// Rate is the bottleneck speed.
	Rate netsim.Rate
	// RTT is the zero-queue round-trip time.
	RTT time.Duration
	// BufferPkts is the bottleneck buffer in packets.
	BufferPkts int
	// Warmup and Duration are the simulator's settling and measurement
	// intervals.
	Warmup, Duration time.Duration
	// Seed drives the simulator's randomness.
	Seed int64
}

// paperDumbbell is the paper's Section VI-A bottleneck (10 Gbps, 100 µs,
// 600-packet buffer) over the given intervals, at seed 1.
func paperDumbbell(flows int, warmup, duration time.Duration) dumbbell {
	return dumbbell{
		Flows:      flows,
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Warmup:     warmup,
		Duration:   duration,
		Seed:       1,
	}
}

// config maps the shape onto the packet simulator running p, sampling the
// queue five times per RTT.
func (d dumbbell) config(p core.Protocol) core.DumbbellConfig {
	return core.DumbbellConfig{
		Protocol:         p,
		Flows:            d.Flows,
		Rate:             d.Rate,
		RTT:              d.RTT,
		BufferPkts:       d.BufferPkts,
		Duration:         d.Duration,
		Warmup:           d.Warmup,
		QueueSampleEvery: d.RTT / 5,
		Seed:             d.Seed,
	}
}

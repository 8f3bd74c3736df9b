package conform

import (
	"context"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/core"
)

// appliedChecks counts the checks of a report that ran (were not skipped).
func appliedChecks(r Report) int {
	n := 0
	for _, c := range r.Checks {
		if c.Skipped == "" {
			n++
		}
	}
	return n
}

// gridNamed returns the points of the grid-table row called name.
func gridNamed(t *testing.T, name string) []Point {
	t.Helper()
	for _, g := range Grids() {
		if g.Name == name {
			return g.Points
		}
	}
	t.Fatalf("no grid %q in the grid table", name)
	return nil
}

// mustApply lists, per full grid, every check that must run for real on
// at least one point, or its tolerance is dead weight.
var mustApply = map[string][]string{
	"full": {"queue-mean/sim-vs-fluid", "queue-std/sim-vs-fluid", "period/sim-vs-fluid",
		"period/sim-vs-df", "amplitude/sim-vs-df"},
	"hybrid": {"queue-mean/hybrid-vs-packet", "queue-std/hybrid-vs-packet",
		"period/hybrid-vs-packet", "fct-mean/hybrid-vs-packet"},
	"zoo": {"completion-mean/plus-vs-dt", "goodput-mean/plus-vs-dt", "completion-mean/plus-vs-dctcp",
		"timeouts/plus-below-cliff", "completion-mean/dt-vs-dctcp", "drops/dctcp-baseline",
		"utilization/sim-vs-virtual-queue-prediction", "queue-mean/real-vs-threshold",
		"queue-mean/hull-vs-dctcp", "events/pooled-vs-private", "marks-drops/pooled-vs-private",
		"queue-trace/pooled-vs-private", "queue-max/sim-vs-dt-fixed-point", "utilization/pooled"},
}

// runGrid runs a full grid and holds it to the anti-vacuity contract: one
// subtest per point, each passing every applicable check with at least
// two applied (a point whose checks all skip validates nothing), and
// every check of mustApply applied somewhere. It returns the reports and
// how many points each check applied on.
func runGrid(t *testing.T, grid string) ([]Report, map[string]int) {
	t.Helper()
	reps, err := RunGrid(context.Background(), gridNamed(t, grid), 0)
	if err != nil {
		t.Fatal(err)
	}
	applied := map[string]int{}
	for _, rep := range reps {
		t.Run(rep.Scenario, func(t *testing.T) {
			if n := appliedChecks(rep); n < 2 {
				t.Errorf("only %d applicable check(s); the grid point validates nothing", n)
			}
			for _, c := range rep.Checks {
				switch {
				case c.Skipped != "":
					t.Logf("%-28s skipped: %s", c.Name, c.Skipped)
				case !c.Pass:
					t.Errorf("%s: got=%.4g ref=%.4g — %s", c.Name, c.Got, c.Ref, c.Detail)
				default:
					t.Logf("%-28s %s", c.Name, c.Detail)
				}
			}
		})
		for _, c := range rep.Checks {
			if c.Skipped == "" {
				applied[c.Name]++
			}
		}
	}
	for _, name := range mustApply[grid] {
		if applied[name] == 0 {
			t.Errorf("check %q was skipped on every scenario — the grid never exercises it", name)
		}
	}
	return reps, applied
}

// The headline conformance assertion: every scenario of the full grid
// must pass every applicable cross-machinery check within its declared
// tolerance band, and the grid as a whole must keep exercising all three
// machineries.
func TestGridConformance(t *testing.T) {
	_, applied := runGrid(t, "full")
	total := 0
	for _, n := range applied {
		total += n
	}
	if total < 40 {
		t.Errorf("only %d applicable checks across the grid, want ≥ 40", total)
	}
}

// TestGridTable holds every row of the grid table to the same shape:
// non-empty, unique point names, and each quick subset drawn from its own
// full grid.
func TestGridTable(t *testing.T) {
	fullOf := map[string]string{"quick": "full", "hybrid-quick": "hybrid", "zoo-quick": "zoo"}
	grids := Grids()
	names := map[string]map[string]bool{}
	for _, g := range grids {
		names[g.Name] = map[string]bool{}
		for _, p := range g.Points {
			names[g.Name][p.Name] = true
		}
	}
	if len(names) != 6 {
		t.Errorf("grid table has %d distinct rows, want 6", len(names))
	}
	for _, g := range grids {
		t.Run(g.Name, func(t *testing.T) {
			if len(g.Points) == 0 || len(names[g.Name]) != len(g.Points) {
				t.Fatalf("%d points under %d distinct names", len(g.Points), len(names[g.Name]))
			}
			for _, p := range g.Points {
				if full, ok := fullOf[g.Name]; ok && !names[full][p.Name] {
					t.Errorf("quick point %q not in the %s grid", p.Name, full)
				}
			}
		})
	}
}

// TestReportAccessors pins Pass/Failures/Applied on synthetic checks
// without paying for simulation runs.
func TestReportAccessors(t *testing.T) {
	rep := Report{
		Scenario: "synthetic",
		Checks: []Check{
			{Name: "a", Pass: true},
			{Name: "b", Skipped: "not applicable"},
			{Name: "c", Pass: false},
		},
	}
	if rep.Pass() {
		t.Fatal("report with a failing check passed")
	}
	if got := appliedChecks(rep); got != 2 {
		t.Fatalf("%d checks applied, want 2", got)
	}
	fails := rep.Failures()
	if len(fails) != 1 || fails[0].Name != "c" {
		t.Fatalf("Failures() = %+v, want just check c", fails)
	}
	rep.Checks[2].Pass = true
	if !rep.Pass() || rep.Failures() != nil {
		t.Fatal("all-pass report reported failures")
	}
}

// Specific regimes must keep their strongest checks applicable: the
// oscillatory points validate the describing-function cycle against the
// simulator, and the fluid relay regime validates the period estimator
// across machineries. If a future change silently pushes a scenario out
// of its regime (e.g. the DF verdict flips to stable), the conformance
// suite must fail loudly rather than skip quietly.
func TestGridRegimesStayCheckable(t *testing.T) {
	mustApply := map[string][]string{
		"dctcp-k40-n40":        {"queue-mean/sim-vs-fluid", "queue-std/sim-vs-fluid", "period/sim-vs-fluid", "period/sim-vs-df", "amplitude/sim-vs-df"},
		"dctcp-k40-n80":        {"queue-mean/sim-vs-fluid", "period/sim-vs-df", "amplitude/sim-vs-df"},
		"dt3050-n80":           {"queue-mean/sim-vs-fluid", "period/sim-vs-df", "amplitude/sim-vs-df"},
		"dt3050-n40":           {"queue-mean/sim-vs-fluid", "period/sim-vs-fluid"},
		"dctcp-k40-n40-rtt200": {"period/sim-vs-fluid", "period/sim-vs-df"},
	}
	byName := map[string]Point{}
	for _, p := range gridNamed(t, "full") {
		byName[p.Name] = p
	}
	for name, wantChecks := range mustApply {
		p, ok := byName[name]
		if !ok {
			t.Fatalf("grid point %s disappeared from the full grid", name)
		}
		rep, err := p.run()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]Check{}
		for _, c := range rep.Checks {
			got[c.Name] = c
		}
		for _, cn := range wantChecks {
			c, ok := got[cn]
			if !ok {
				t.Errorf("%s: check %s missing", name, cn)
				continue
			}
			if c.Skipped != "" {
				t.Errorf("%s: check %s skipped (%s), must stay applicable", name, cn, c.Skipped)
			}
		}
	}
}

// Unit coverage of the check evaluator: pass, fail and skip paths, and
// the Report helpers built on them.
func TestApplyChecksVerdicts(t *testing.T) {
	tol := defaultTolerances()
	obs := observation{
		SimQueueMean: 40, FluidQueueMean: 45,
		SimQueueStd: 20, FluidQueueStd: 15,
		SimPeriod: 700 * time.Microsecond, SimConfidence: 0.9,
		FluidPeriod: 1 * time.Millisecond, FluidConfidence: 0.9,
		DFStable: false, DFAmplitude: 50, DFPeriod: 800 * time.Microsecond,
	}
	rep := Report{Scenario: "unit", Checks: applyChecks(tol, obs)}
	if !rep.Pass() {
		t.Fatalf("healthy observation must pass, failures: %+v", rep.Failures())
	}
	if len(rep.Checks) != 5 || appliedChecks(rep) != 5 {
		t.Fatalf("want 5 applied checks, got %d of %d", appliedChecks(rep), len(rep.Checks))
	}

	// A wildly diverged queue mean fails exactly the mean check.
	bad := obs
	bad.SimQueueMean = 400
	rep = Report{Checks: applyChecks(tol, bad)}
	if rep.Pass() {
		t.Fatal("diverged mean must fail")
	}
	fails := rep.Failures()
	if len(fails) != 1 || fails[0].Name != "queue-mean/sim-vs-fluid" {
		t.Fatalf("want exactly the mean check to fail, got %+v", fails)
	}

	// Low sim confidence turns every period/amplitude comparison into a
	// documented skip, never a silent pass.
	quiet := obs
	quiet.SimConfidence = 0.01
	rep = Report{Checks: applyChecks(tol, quiet)}
	for _, c := range rep.Checks {
		if c.Skipped != "" && !strings.Contains(c.Skipped, "confidence") {
			t.Fatalf("skip reason must name the confidence: %+v", c)
		}
	}
	if n := len(rep.Checks) - appliedChecks(rep); n != 3 {
		t.Fatalf("want period/sim-vs-fluid, period/sim-vs-df and amplitude/sim-vs-df skipped, got %d skips", n)
	}
	if !rep.Pass() {
		t.Fatal("skipped checks must not fail the report")
	}

	// A stable DF verdict skips the cycle comparisons.
	stable := obs
	stable.DFStable = true
	rep = Report{Checks: applyChecks(tol, stable)}
	for _, c := range rep.Checks {
		if (c.Name == "period/sim-vs-df" || c.Name == "amplitude/sim-vs-df") && c.Skipped == "" {
			t.Fatalf("DF-stable scenario must skip %s", c.Name)
		}
	}
}

// Scenarios without an ECN marker cannot be conformance-checked: the
// fluid model and the describing function need a marking law. The error
// names the failing point exactly once — RunGrid is the one place that
// prefixes it.
func TestRunScenarioRejectsUnmarkedProtocol(t *testing.T) {
	s := paperScenario("unmarked", core.Reno(), 10)
	s.Duration = 2 * time.Millisecond
	s.Warmup = time.Millisecond
	_, err := RunGrid(context.Background(), []Point{{s.Name, s.run}}, 1)
	if err == nil {
		t.Fatal("Reno has no marker; RunGrid must error")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "conform unmarked: ") || strings.Count(msg, "unmarked") != 1 {
		t.Fatalf("error must name the point exactly once: %q", msg)
	}
}

// The two analysis parameterizations must keep their deliberate units:
// physical packets for the fluid model, the paper's 1000-bit packets for
// the describing function (DESIGN.md, judgment call 1).
func TestParameterUnits(t *testing.T) {
	s := paperScenario("units", core.DCTCP(40, 1.0/16), 10)
	fl := s.fluidParams()
	df := s.dfParams()
	wantFluid := 10e9 / 8 / 1500 // ≈ 833333 pkts/s
	if diff := fl.CapacityPktsPerSec - wantFluid; diff > 1 || diff < -1 {
		t.Fatalf("fluid C = %v, want ≈ %v", fl.CapacityPktsPerSec, wantFluid)
	}
	if df.CapacityPktsPerSec != 1e7 {
		t.Fatalf("DF C = %v, want 1e7 (paper unit)", df.CapacityPktsPerSec)
	}
	paper := core.PaperAnalysisParams()
	if df.CapacityPktsPerSec != paper.CapacityPktsPerSec || df.RTT != paper.RTT || df.G != paper.G {
		t.Fatalf("DF params %+v must match PaperAnalysisParams %+v at the paper's base point", df, paper)
	}
}

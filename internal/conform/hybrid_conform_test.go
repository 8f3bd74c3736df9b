package conform

import (
	"testing"
	"time"
)

// TestHybridGridConforms is the hybrid co-simulation's conformance
// contract: every grid point runs both as a hybrid (fluid background)
// and fully packet-level, and every applicable check must hold within
// the scenario's declared tolerances.
func TestHybridGridConforms(t *testing.T) {
	reports, applied := runGrid(t, "hybrid")
	if len(reports) < 10 {
		t.Fatalf("hybrid grid has %d scenarios, want at least 10", len(reports))
	}
	// The FCT comparison has no skip condition that a healthy run should
	// trigger; it must apply on (nearly) every point.
	if applied["fct-mean/hybrid-vs-packet"] < len(reports)-1 {
		t.Errorf("fct-mean applied on only %d/%d scenarios", applied["fct-mean/hybrid-vs-packet"], len(reports))
	}
}

// TestHybridReportsAreDeterministic runs one scenario twice and demands
// identical observations — the conformance numbers themselves are
// reproducible artifacts.
func TestHybridReportsAreDeterministic(t *testing.T) {
	p := gridNamed(t, "hybrid-quick")[0]
	a, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Obs != b.Obs {
		t.Fatalf("repeat scenario run diverged:\n%+v\n%+v", a.Obs, b.Obs)
	}
}

// TestHybridChecksSkipAndFailSemantics drives applyHybridChecks and the
// report accessors on synthetic observations, pinning the skip reasons
// and the Pass/Failures contract without paying for simulation runs.
func TestHybridChecksSkipAndFailSemantics(t *testing.T) {
	tol := defaultHybridTolerances()

	// Degenerate observation: flat packet queue, unconfident hybrid
	// period, no hybrid FCTs. Everything but queue-mean must skip with a
	// reason, and the report still passes.
	flat := hybridObservation{PktQueueStd: 1, HybConfidence: 0, PktConfidence: 1, PktFCTCount: 3}
	rep := Report{Scenario: "synthetic-flat", Checks: applyHybridChecks(tol, flat)}
	if got := appliedChecks(rep); got != 1 || rep.Checks[0].Skipped != "" {
		t.Fatalf("flat observation applied %d checks, want just queue-mean", got)
	}
	if !rep.Pass() || rep.Failures() != nil {
		t.Fatalf("skipped checks counted as failures: %v", rep.Failures())
	}

	// Complementary skip arms: confident hybrid vs unconfident packet
	// period, and FCTs present on the hybrid side only.
	swap := hybridObservation{PktQueueStd: 1, HybConfidence: 1, PktConfidence: 0, HybFCTCount: 3}
	for _, c := range applyHybridChecks(tol, swap) {
		switch c.Name {
		case "period/hybrid-vs-packet", "fct-mean/hybrid-vs-packet":
			if c.Skipped == "" {
				t.Errorf("%s ran, want skip (packet side lacks the input)", c.Name)
			}
		}
	}

	// A hybrid that disagrees everywhere: every check applies and fails,
	// and Failures carries exactly the failing set.
	bad := hybridObservation{
		HybQueueMean: 500, PktQueueMean: 10,
		HybQueueStd: 100, PktQueueStd: 4,
		HybPeriod: time.Second, PktPeriod: time.Millisecond,
		HybConfidence: 1, PktConfidence: 1,
		HybFCTMean: 1, PktFCTMean: 0.001,
		HybFCTCount: 5, PktFCTCount: 5,
	}
	rep = Report{Scenario: "synthetic-bad", Checks: applyHybridChecks(tol, bad)}
	if rep.Pass() {
		t.Fatal("wildly divergent observation passed")
	}
	if got := len(rep.Failures()); got != len(rep.Checks) {
		t.Fatalf("%d of %d checks failed, want all", got, len(rep.Checks))
	}
	for _, c := range rep.Failures() {
		if c.Skipped != "" || c.Pass {
			t.Errorf("Failures() returned a non-failure: %+v", c)
		}
	}
}

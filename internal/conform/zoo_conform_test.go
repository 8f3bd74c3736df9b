package conform

import (
	"reflect"
	"strings"
	"testing"
)

// TestZooGridConforms is the protocol-and-switch zoo's conformance
// contract: every grid point runs its candidate mechanism against its
// declared rival or analytic prediction, and every applicable check must
// hold within the scenario's tolerances.
func TestZooGridConforms(t *testing.T) {
	reports, _ := runGrid(t, "zoo")
	if len(reports) < 8 {
		t.Fatalf("zoo grid has %d scenarios, want at least 8", len(reports))
	}

	// Cross-scenario metamorphic check: utilization must be monotone in γ
	// across the HULL sweep — the virtual drain fraction is the knob the
	// whole phantom-queue claim hangs on.
	util := map[string]float64{}
	for _, rep := range reports {
		if !strings.HasPrefix(rep.Scenario, "zoo-hull-") {
			continue
		}
		for _, c := range rep.Checks {
			if c.Name == "utilization/sim-vs-virtual-queue-prediction" {
				util[rep.Scenario] = c.Got
			}
		}
	}
	u80, ok80 := util["zoo-hull-g80-n20"]
	u95, ok95 := util["zoo-hull-g95-n20"]
	u100, ok100 := util["zoo-hull-g100-n20"]
	if !ok80 || !ok95 || !ok100 {
		t.Fatalf("HULL sweep did not report all three utilizations: %v", util)
	}
	const slack = 0.02 // sampling noise on a 30 ms window
	if u80 > u95+slack || u95 > u100+slack {
		t.Errorf("utilization not monotone in γ: u(0.80)=%.3f u(0.95)=%.3f u(1.00)=%.3f", u80, u95, u100)
	}
}

// TestZooReportsAreDeterministic runs one scenario from each family
// twice and demands identical reports — the conformance numbers are
// reproducible artifacts, including the DCTCP+ pacing and shared-buffer
// admission paths.
func TestZooReportsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: repeat runs of the quick grid are covered by TestZooGridConforms")
	}
	for _, p := range gridNamed(t, "zoo-quick") {
		t.Run(p.Name, func(t *testing.T) {
			a, err := p.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("repeat scenario run diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}

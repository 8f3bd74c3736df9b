//go:build !race

package flowgen

import (
	"testing"
	"time"

	"dtdctcp/internal/invariant"
)

// TestSteadyArrivalAllocFree pins both ends of a flow as recycled storage:
// once a host has a retired sender and its destination a closed
// receiver, a flow that arrives, opens its sender from the one list and
// its receiver from the other, runs to completion and closes both
// allocates nothing. Incast at a load that never overlaps two flows puts
// every receiver on the aggregator, so each arrival after the warm-up
// finds both lists stocked.
//
// Excluded from -race builds and skipped under -tags invariants for the
// reasons given in internal/netsim/alloc_test.go.
func TestSteadyArrivalAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	const warm, runs = 30, 20
	e, f := testFabric(t, 17)
	cdf, err := ParseCDFString("1460 0.5\n14600 1.0\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, f, warm+runs+2) // AllocsPerRun adds a warm-up call
	cfg.CDF, cfg.Load, cfg.Matrix = cdf, 0.001, Incast
	w, err := Start(f.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	// flow runs the engine through the next flow's arrival and completion.
	flow := func() {
		fl := &w.Flows[next]
		if err := e.RunUntil(fl.Arrival.Add(5 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if !fl.done || fl.receiver != nil || !fl.closed {
			t.Fatalf("flow %d: done %v, receiver open %v, closed %v — flows overlap", next, fl.done, fl.receiver != nil, fl.closed)
		}
		next++
	}
	for next < warm {
		flow()
	}
	if avg := testing.AllocsPerRun(runs, flow); avg != 0 {
		t.Fatalf("%.1f allocations per steady-state flow, want 0", avg)
	}
	if built := len(w.local[w.Flows[0].Dst].receivers); built != 1 {
		t.Fatalf("the aggregator constructed %d receivers for flows that never overlap, want 1", built)
	}
	w.Cleanup()
}

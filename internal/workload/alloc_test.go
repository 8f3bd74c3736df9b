//go:build !race

package workload

import (
	"testing"
	"time"

	"dtdctcp/internal/invariant"
	"dtdctcp/internal/tcp"
)

// TestFreshConnectionRoundsAllocFree pins connections as the third
// recycled class, beside events (internal/sim) and packets
// (internal/netsim): once the first rounds have built one sender/receiver
// pair per worker and warmed the event and packet pools, a
// fresh-connection round — 32 connections opened, run through slow start,
// drops and RTOs, closed — allocates nothing.
//
// Excluded from -race builds and skipped under -tags invariants for the
// reasons given in internal/netsim/alloc_test.go.
func TestFreshConnectionRoundsAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	for _, tc := range []struct {
		name    string
		variant tcp.Variant
		workers int
	}{
		{"dctcp-w8", tcp.DCTCP, 8},
		{"dctcp-w32-collapse", tcp.DCTCP, 32},
		{"dctcp+-w16", tcp.DCTCPPlus, 16},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const warm, runs, perRun = 8, 10, 4
			e, st := incastStar(t, 5, tc.workers)
			q := StartQueries(e, QueryConfig{
				Workers:        st.Senders,
				Aggregator:     st.Receiver,
				BytesPerWorker: 64 << 10,
				Rounds:         warm + (runs+2)*perRun, // AllocsPerRun adds a warm-up call; one more so the runner is still live
				Gap:            100 * time.Microsecond,
				StartJitter:    50 * time.Microsecond,
				TCP:            tcp.DefaultConfig(tc.variant),
			})
			// advance runs the engine until n more rounds have completed.
			advance := func(n int) {
				for want := len(q.Rounds()) + n; len(q.Rounds()) < want; {
					if e.Pending() == 0 {
						t.Fatalf("engine drained after %d rounds", len(q.Rounds()))
					}
					if err := e.RunFor(time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
			}
			advance(warm)
			if avg := testing.AllocsPerRun(runs, func() { advance(perRun) }); avg != 0 {
				t.Fatalf("%.1f allocations per %d steady-state fresh-connection rounds of %d workers, want 0",
					avg, perRun, tc.workers)
			}
			if q.Done() {
				t.Fatal("the runner finished inside the measurement: rounds were not all measured")
			}
		})
	}
}

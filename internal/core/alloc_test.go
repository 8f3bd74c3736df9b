//go:build !race

package core

import (
	"runtime"
	"testing"
	"time"

	"dtdctcp/internal/invariant"
	"dtdctcp/internal/netsim"
)

// TestDumbbellBytes bounds what one short 40-flow dumbbell run allocates.
// Each sender host queues a few packets and terminates one flow, so its
// NIC ring and flow table must stay at their first, small sizes; with
// 64-slot rings and 8-slot tables for every host the run allocated
// about 205 KB, with storage sized by occupancy about 163 KB (144 KB once
// events were one cache line), and with 80 B packets, 192 B ports and
// connections of two objects about 119 KB; the bound is that plus 10 %. The least
// of three runs is taken, after a warming one, so a stray runtime
// allocation does not decide it. Excluded from -race builds and skipped
// under -tags invariants for the reasons given in
// internal/netsim/alloc_test.go.
func TestDumbbellBytes(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	cfg := DumbbellConfig{
		Protocol:   DCTCP(40, 1.0/16),
		Flows:      40,
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Warmup:     2 * time.Millisecond,
		Duration:   5 * time.Millisecond,
		Seed:       1,
	}
	if _, err := RunDumbbell(cfg); err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := RunDumbbell(cfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	const bound = 130 << 10
	if least > bound {
		t.Fatalf("a 40-flow dumbbell run allocated %d bytes, want at most %d", least, bound)

	}
}

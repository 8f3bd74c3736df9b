package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtdctcp/internal/netsim"
)

// deliverSegments feeds the receiver the given segment indices (each of
// size segLen) in order and returns the contiguous prefix it reports.
func deliverSegments(t testing.TB, order []int, segLen int) int64 {
	t.Helper()
	e, agg, w := receiverNet(t, &ackRecorder{}) // absorb ACKs
	r := NewReceiver(agg, 1, w.ID(), DefaultConfig(Reno))
	for _, idx := range order {
		r.Deliver(&netsim.Packet{
			Flow:       1,
			Seq:        int64(idx * segLen),
			PayloadLen: int32(segLen),
			Size:       int32(segLen) + 40,
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return r.Received()
}

// Property: any permutation of a contiguous segment range — including
// duplicates injected on top — reassembles to exactly the full length.
func TestPropertyReassemblyUnderPermutation(t *testing.T) {
	f := func(seed int64, nRaw, dupRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		order := rng.Perm(n)
		// Sprinkle duplicates.
		for d := 0; d < int(dupRaw%8); d++ {
			order = append(order, rng.Intn(n))
		}
		const segLen = 1460
		got := deliverSegments(t, order, segLen)
		return got == int64(n*segLen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: with one segment withheld, the contiguous prefix never
// crosses the hole, regardless of the order of everything else.
func TestPropertyReassemblyStopsAtHole(t *testing.T) {
	f := func(seed int64, nRaw, holeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 2
		hole := int(holeRaw) % n
		var order []int
		for _, idx := range rng.Perm(n) {
			if idx != hole {
				order = append(order, idx)
			}
		}
		const segLen = 1460
		got := deliverSegments(t, order, segLen)
		return got == int64(hole*segLen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Regression: two buffered ranges that both straddle the new rcvNxt must
// merge to the larger end and then drain, in any arrival order.
func TestStraddlingRangesMergeToMaxAndDrain(t *testing.T) {
	e, agg, w := receiverNet(t, &ackRecorder{})
	r := NewReceiver(agg, 1, w.ID(), DefaultConfig(Reno))
	seg := func(seq, length int64) *netsim.Packet {
		return &netsim.Packet{Flow: 1, Seq: seq, PayloadLen: int32(length), Size: int32(length) + 40}
	}
	// Buffer [500,1200) and [700,2000): both beyond rcvNxt=0.
	r.Deliver(seg(500, 700))
	r.Deliver(seg(700, 1300))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Received() != 0 {
		t.Fatalf("premature advance to %d", r.Received())
	}
	// An in-order segment [0,800) straddles both buffered ranges: the
	// receiver must land on the max end, 2000.
	r.Deliver(seg(0, 800))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Received() != 2000 {
		t.Fatalf("Received = %d, want 2000 (max-end merge + drain)", r.Received())
	}
}

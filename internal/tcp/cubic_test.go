package tcp

import (
	"math"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

func TestCubicVariantBasics(t *testing.T) {
	if Cubic.String() != "cubic" {
		t.Fatal("name")
	}
	if DefaultConfig(Cubic).Variant.ect() {
		t.Fatal("loss-based CUBIC must not negotiate ECN")
	}
	if Cubic.dctcpLike() {
		t.Fatal("CUBIC is not DCTCP-like")
	}
}

func TestCubicStateOnLoss(t *testing.T) {
	var c cubicState
	// Growing window: wMax = cwnd, reduce to β·cwnd.
	next := c.onLoss(100)
	if next != 70 {
		t.Fatalf("reduction to %v, want 70", next)
	}
	if c.wMax != 100 {
		t.Fatalf("wMax = %v, want 100", c.wMax)
	}
	// Fast convergence: a loss below the previous wMax shrinks wMax.
	next = c.onLoss(60)
	if c.wMax >= 60 {
		t.Fatalf("fast convergence: wMax = %v, want < 60", c.wMax)
	}
	if next != 42 {
		t.Fatalf("reduction to %v, want 42", next)
	}
	// Floor at 2 segments.
	if got := c.onLoss(1); got != 2 {
		t.Fatalf("floor: %v", got)
	}
}

func TestCubicCurveShape(t *testing.T) {
	var c cubicState
	c.onLoss(100) // wMax=100, window now 70
	// Anchor the epoch at t=1ns (0 means "unanchored" to the state).
	w0 := c.target(1, 70, 100e-6)
	// At t = K the curve returns to wMax.
	k := c.k
	wAtK := c.target(sim.Time(k*1e9), 70, 100e-6)
	if math.Abs(wAtK-100) > 1 {
		t.Fatalf("W(K) = %v, want ≈ wMax=100", wAtK)
	}
	// Beyond K the curve keeps growing.
	wLater := c.target(sim.Time(2*k*1e9), 70, 100e-6)
	if !(w0 <= wAtK && wAtK < wLater) {
		t.Fatalf("curve not concave-up around K: %v %v %v", w0, wAtK, wLater)
	}
}

func TestCubicBulkTransferCompletes(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 300, nil)
	const total = 4 << 20
	s, r := d.pair(0, total, DefaultConfig(Cubic))
	s.Start()
	if err := d.engine.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() || r.Received() != total {
		t.Fatalf("cubic transfer incomplete: acked=%d", s.Acked())
	}
	// The 300-packet buffer forces losses; CUBIC must recover via fast
	// retransmit, not RTOs.
	if s.Stats().FastRecoveries == 0 {
		t.Fatal("no loss events: buffer too big for this test to mean anything")
	}
}

func TestCubicOutgrowsRenoAfterLoss(t *testing.T) {
	// After a loss at a large window on a long-RTT path, CUBIC's window
	// recovers toward wMax faster than Reno's +1/RTT.
	run := func(v Variant) float64 {
		d := newDumbbell(t, 1, 1*netsim.Gbps, 2*time.Millisecond, 200, &dropNth{n: 600})
		s, _ := d.pair(0, 0, DefaultConfig(v))
		s.Start()
		if err := d.engine.RunFor(600 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if s.Stats().FastRecoveries == 0 {
			t.Fatalf("%v: no loss event", v)
		}
		return s.CwndPackets()
	}
	cubic := run(Cubic)
	reno := run(Reno)
	if cubic <= reno {
		t.Fatalf("post-loss window: cubic %.1f vs reno %.1f, want cubic larger", cubic, reno)
	}
}

package tcp

import (
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

func TestExtendResumesCompletedTransfer(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	const chunk = 64 << 10
	s, r := d.pair(0, chunk, DefaultConfig(Reno))
	completions := 0
	s.OnComplete = func(*Sender, sim.Time) { completions++ }
	s.Start()
	if err := d.engine.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if completions != 1 || !s.Completed() {
		t.Fatalf("first chunk incomplete (completions=%d)", completions)
	}
	cwndBefore := s.cwnd

	s.Extend(chunk)
	if s.Completed() {
		t.Fatal("Extend should clear completion")
	}
	if s.cwnd != cwndBefore {
		t.Fatal("Extend must preserve congestion state")
	}
	if err := d.engine.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if completions != 2 {
		t.Fatalf("second chunk incomplete (completions=%d)", completions)
	}
	if r.Received() != 2*chunk {
		t.Fatalf("received %d, want %d", r.Received(), 2*chunk)
	}
}

func TestExtendNoopCases(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	unlimited, _ := d.pair(0, 0, DefaultConfig(Reno))
	unlimited.Extend(1000) // unlimited flows ignore Extend
	if unlimited.Completed() {
		t.Fatal("unlimited flow cannot complete")
	}
	d2 := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	bounded, _ := d2.pair(0, 1000, DefaultConfig(Reno))
	bounded.Extend(-5) // non-positive is ignored
	bounded.Start()
	if err := d2.engine.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if bounded.Acked() != 1000 {
		t.Fatalf("acked %d, want exactly the original 1000", bounded.Acked())
	}
}

func TestRTOBackoffDoublesUnderPersistentBlackout(t *testing.T) {
	// Everything is dropped for 2 s: the sender must keep retrying with
	// exponentially growing timeouts and survive to deliver afterwards.
	drop := &dropDuring{until: sim.FromDuration(1900 * time.Millisecond)}
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, drop)
	drop.engine = d.engine
	const total = 20 * 1460
	s, r := d.pair(0, total, DefaultConfig(Reno))
	s.Start()
	if err := d.engine.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() || r.Received() != total {
		t.Fatalf("incomplete after long blackout: acked=%d", s.Acked())
	}
	// RTOmin 200 ms with doubling covers 1.9 s in ≈4 timeouts
	// (200+400+800+1600); more than 7 would mean backoff is broken.
	if got := s.Stats().Timeouts; got < 3 || got > 7 {
		t.Fatalf("timeouts = %d, want 3..7 under exponential backoff", got)
	}
}

func TestStartIsIdempotent(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	s, _ := d.pair(0, 10*1460, DefaultConfig(Reno))
	s.Start()
	sent := s.Stats().SegmentsSent
	s.Start() // second call must not re-burst
	if s.Stats().SegmentsSent != sent {
		t.Fatal("double Start re-sent data")
	}
}

func TestCWRClearsLatchedECE(t *testing.T) {
	// RenoECN end-to-end: after the sender reduces and sets CWR, the
	// receiver must stop echoing ECE until the next mark, so the sender
	// reduces once per congestion episode rather than forever.
	pol := aqm.NewSingleThresholdPackets(15, 1500)
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	s, _ := d.pair(0, 0, DefaultConfig(RenoECN))
	s.Start()
	if err := d.engine.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ECNReductions == 0 {
		t.Fatal("no reductions")
	}
	// If ECE never cleared, every ACK past the first mark would carry it
	// and the flow would be pinned at minimum window with ~zero
	// throughput. Sustained goodput implies the CWR handshake works.
	capacity := (1 * netsim.Gbps).BytesPerSecond() * 0.1
	if float64(s.Acked()) < 0.5*capacity {
		t.Fatalf("goodput collapsed (%d bytes): ECE latch likely stuck", s.Acked())
	}
}

func TestDelayedAckTimerFlushesTail(t *testing.T) {
	// With AckEvery=2 and an odd number of segments, the final segment's
	// ACK is released by the delayed-ACK timer; the transfer must still
	// complete promptly (well under RTOmin).
	cfg := DefaultConfig(Reno)
	cfg.AckEvery = 2
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, nil)
	const total = 3 * 1460 // odd number of segments
	s, _ := d.pair(0, total, cfg)
	s.Start()
	if err := d.engine.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() {
		t.Fatal("transfer incomplete")
	}
	if s.Stats().Timeouts != 0 {
		t.Fatal("delayed-ack tail caused an RTO")
	}
	if got := s.CompletionTime().Duration(); got > 5*time.Millisecond {
		t.Fatalf("completion %v: tail ACK not flushed by the delack timer", got)
	}
}

func TestSRTTConvergesToPathRTT(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 4000, nil)
	s, _ := d.pair(0, 0, DefaultConfig(Reno))
	s.Start()
	if err := d.engine.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Base RTT 100 µs plus queueing; srtt must be in a sane band.
	srtt := s.rtt.smoothed()
	if srtt < 100*time.Microsecond || srtt > 100*time.Millisecond {
		t.Fatalf("srtt = %v", srtt)
	}
}

func TestAlphaDecaysWhenMarkingStops(t *testing.T) {
	// Start with a marking bottleneck; α rises. Then the flow completes
	// and a fresh unmarked flow's α should decay from initialAlpha as
	// clean windows accumulate.
	pol := aqm.NewSingleThresholdPackets(5, 1500)
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	cfg := DefaultConfig(DCTCP)
	s, _ := d.pair(0, 0, cfg)
	s.Start()
	if err := d.engine.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Alpha() < 0.05 {
		t.Fatalf("α = %v under persistent marking, want elevated", s.Alpha())
	}

	// Fresh dumbbell with a threshold too high to ever mark, and a small
	// buffer so the window — and hence the α-update interval — stays
	// short.
	d2 := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 30,
		aqm.NewSingleThresholdPackets(100000, 1500))
	s2, _ := d2.pair(0, 0, cfg)
	s2.Start()
	// α decays by (1−g) once per window of data; with a large window a
	// window lasts several ms, so give it time for ~60 updates.
	if err := d2.engine.RunFor(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s2.Alpha() > 0.1 {
		t.Fatalf("α = %v with no marking, want decayed toward 0", s2.Alpha())
	}
}

package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// dumbbell builds nSenders hosts → switch → one receiver host. The
// bottleneck is the switch→receiver port, which gets the policy and
// bufferPkts. All links share rate and one-way delay.
type dumbbell struct {
	engine  *sim.Engine
	net     *netsim.Network
	senders []*netsim.Host
	rcvHost *netsim.Host
	sw      *netsim.Switch
	bneck   *netsim.Port
}

func newDumbbell(t testing.TB, nSenders int, rate netsim.Rate, delay time.Duration,
	bufferPkts int, policy aqm.Policy) *dumbbell {
	t.Helper()
	e := sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	sw := n.AddSwitch("sw")
	rcv := n.AddHost("rcv")
	pkt := 1500
	// Access links run 10× faster than the bottleneck so queueing — and
	// therefore marking — happens at the instrumented switch port.
	plain := netsim.PortConfig{Rate: 10 * rate, Delay: delay, Buffer: 4000 * pkt}
	bneckCfg := netsim.PortConfig{Rate: rate, Delay: delay, Buffer: bufferPkts * pkt, Policy: policy}
	if err := n.Connect(rcv, sw, plain, bneckCfg); err != nil {
		t.Fatal(err)
	}
	d := &dumbbell{engine: e, net: n, rcvHost: rcv, sw: sw}
	for i := 0; i < nSenders; i++ {
		h := n.AddHost("snd")
		if err := n.Connect(h, sw, plain, plain); err != nil {
			t.Fatal(err)
		}
		d.senders = append(d.senders, h)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	d.bneck = sw.PortTo(rcv.ID())
	return d
}

// pair creates sender/receiver endpoints for flow i on the dumbbell.
func (d *dumbbell) pair(i int, totalBytes int64, cfg Config) (*Sender, *Receiver) {
	flow := netsim.FlowID(i)
	s := NewSender(d.senders[i], flow, d.rcvHost.ID(), totalBytes, cfg)
	r := NewReceiver(d.rcvHost, flow, d.senders[i].ID(), cfg)
	return s, r
}

func TestVariantString(t *testing.T) {
	tests := []struct {
		v    Variant
		want string
	}{
		{Reno, "reno"},
		{RenoECN, "reno-ecn"},
		{DCTCP, "dctcp"},
		{Variant(0), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(DCTCP)
	if c.Variant != DCTCP || c.MSS != 1460 || c.AckEvery != 1 {
		t.Fatalf("default config = %+v", c)
	}
	if c.PacketSize() != 1500 {
		t.Fatalf("PacketSize = %d", c.PacketSize())
	}
	if !c.Variant.ect() {
		t.Fatal("DCTCP must be ECT")
	}
	if DefaultConfig(Reno).Variant.ect() {
		t.Fatal("Reno must not be ECT")
	}
}

func TestRTTEstimator(t *testing.T) {
	cfg := DefaultConfig(DCTCP)
	cfg.RTOMin, cfg.RTOInitial = time.Millisecond, 3*time.Second
	r := newRTTEstimator(cfg)
	if got := r.rto(); got != 3*time.Second {
		t.Fatalf("initial rto = %v, want RTOInitial 3s", got)
	}
	r.sample(100 * time.Microsecond)
	if r.smoothed() != 100*time.Microsecond {
		t.Fatalf("srtt after first sample = %v", r.smoothed())
	}
	// RTO = srtt + 4·rttvar = 100µs + 4·50µs = 300µs → clamped to min 1ms.
	if got := r.rto(); got != time.Millisecond {
		t.Fatalf("rto = %v, want clamp at 1ms", got)
	}
	for i := 0; i < 100; i++ {
		r.sample(100 * time.Microsecond)
	}
	if r.smoothed() != 100*time.Microsecond {
		t.Fatalf("converged srtt = %v", r.smoothed())
	}
	r.sample(0) // ignored
	if got := r.clamp(2 * rtoMax); got != rtoMax {
		t.Fatalf("clamp(%v) = %v, want the %v cap", 2*rtoMax, got, rtoMax)
	}
}

func TestBulkTransferCompletesCleanPath(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 1000, nil)
	const total = 1 << 20 // 1 MB
	s, r := d.pair(0, total, DefaultConfig(Reno))
	var done sim.Time
	s.OnComplete = func(_ *Sender, now sim.Time) { done = now }
	s.Start()
	if err := d.engine.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() {
		t.Fatalf("transfer incomplete: acked %d of %d", s.Acked(), int64(total))
	}
	if r.Received() != total {
		t.Fatalf("receiver got %d bytes, want %d", r.Received(), total)
	}
	if done == 0 || done != s.CompletionTime() {
		t.Fatal("completion callback/time inconsistent")
	}
	if s.Stats().Retransmissions != 0 {
		t.Fatalf("clean path produced %d retransmissions", s.Stats().Retransmissions)
	}
	// 1 MB at 1 Gbps is ≥ 8 ms; with slow start it must land well under
	// 100 ms on a 100 µs RTT.
	if done.Duration() > 100*time.Millisecond {
		t.Fatalf("completion took %v", done.Duration())
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	d := newDumbbell(t, 1, 10*netsim.Gbps, 25*time.Microsecond, 4000, nil)
	s, _ := d.pair(0, 0, DefaultConfig(Reno))
	s.Start()
	// RTT ≈ 100 µs. After k RTTs of slow start cwnd ≈ IW·2^k.
	if err := d.engine.RunFor(450 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	got := s.CwndPackets()
	if got < 20 || got > 100 {
		t.Fatalf("cwnd after ~4 RTTs of slow start = %.1f segments, want ~3·2⁴", got)
	}
}

func TestFastRetransmitRecoversFromSingleLoss(t *testing.T) {
	drop := &dropNth{n: 20}
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 1000, drop)
	const total = 256 * 1460
	s, r := d.pair(0, total, DefaultConfig(Reno))
	s.Start()
	if err := d.engine.RunFor(1 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() || r.Received() != total {
		t.Fatalf("transfer incomplete after loss: acked=%d", s.Acked())
	}
	st := s.Stats()
	if st.FastRecoveries != 1 {
		t.Fatalf("FastRecoveries = %d, want 1", st.FastRecoveries)
	}
	if st.Timeouts != 0 {
		t.Fatalf("Timeouts = %d, want 0 (loss should be repaired by fast retransmit)", st.Timeouts)
	}
	// Completion must not have waited for the 200 ms RTO.
	if s.CompletionTime().Duration() > 150*time.Millisecond {
		t.Fatalf("completion %v suggests an RTO", s.CompletionTime().Duration())
	}
}

// TestRTORecoversFromTotalBlackout drops everything for the first 5 ms:
// the initial window and all fast-retransmit attempts die, and with
// nothing left in flight there are no duplicate ACKs, so recovery must
// come from the retransmission timer. DCTCP takes the same path as Reno:
// a dropped segment carries no CE mark to react to.
func TestRTORecoversFromTotalBlackout(t *testing.T) {
	for _, v := range []Variant{Reno, DCTCP} {
		t.Run(v.String(), func(t *testing.T) {
			drop := &dropDuring{until: sim.FromDuration(5 * time.Millisecond)}
			d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 1000, drop)
			drop.engine = d.engine
			const total = 200 * 1460
			s, r := d.pair(0, total, DefaultConfig(v))
			s.Start()
			if err := d.engine.RunFor(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if !s.Completed() || r.Received() != total {
				t.Fatalf("transfer incomplete after blackout: acked=%d", s.Acked())
			}
			if s.Stats().Timeouts == 0 {
				t.Fatal("expected at least one RTO")
			}
		})
	}
}

func TestDCTCPAlphaTracksMarkingAndQueueStaysNearK(t *testing.T) {
	const kPkts = 40
	pol := aqm.NewSingleThresholdPackets(kPkts, 1500)
	d := newDumbbell(t, 2, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	rec := netsim.NewQueueRecorder(1500, 0)
	rec.WarmupUntil = sim.FromDuration(50 * time.Millisecond)
	d.bneck.SetMonitor(rec)
	cfg := DefaultConfig(DCTCP)
	var snds []*Sender
	for i := 0; i < 2; i++ {
		s, _ := d.pair(i, 0, cfg)
		s.Start()
		snds = append(snds, s)
	}
	if err := d.engine.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Finish(d.engine.Now())
	for _, s := range snds {
		if s.Stats().AlphaUpdates == 0 {
			t.Fatal("α never updated")
		}
		if a := s.Alpha(); a <= 0 || a >= 0.9 {
			t.Fatalf("steady-state α = %v, want small positive", a)
		}
	}
	mean := rec.Mean()
	if mean < 5 || mean > 80 {
		t.Fatalf("mean queue %v packets, want near K=%d", mean, kPkts)
	}
	// DCTCP's whole point: full throughput with bounded queue, no drops.
	if d.bneck.Stats().DroppedOverflow != 0 {
		t.Fatalf("bottleneck dropped %d packets", d.bneck.Stats().DroppedOverflow)
	}
	if d.bneck.Stats().Marked == 0 {
		t.Fatal("no CE marks at bottleneck")
	}
}

func TestDCTCPKeepsHighUtilization(t *testing.T) {
	pol := aqm.NewSingleThresholdPackets(40, 1500)
	d := newDumbbell(t, 2, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	cfg := DefaultConfig(DCTCP)
	for i := 0; i < 2; i++ {
		s, _ := d.pair(i, 0, cfg)
		s.Start()
	}
	run := 300 * time.Millisecond
	if err := d.engine.RunFor(run); err != nil {
		t.Fatal(err)
	}
	sent := float64(d.bneck.Stats().BytesSent)
	capacity := (1 * netsim.Gbps).BytesPerSecond() * run.Seconds()
	util := sent / capacity
	if util < 0.90 {
		t.Fatalf("bottleneck utilization %.2f, want ≥ 0.90", util)
	}
}

func TestRenoFillsBufferDCTCPDoesNot(t *testing.T) {
	run := func(cfg Config, pol aqm.Policy) float64 {
		d := newDumbbell(t, 2, 1*netsim.Gbps, 25*time.Microsecond, 200, pol)
		rec := netsim.NewQueueRecorder(1500, 0)
		rec.WarmupUntil = sim.FromDuration(50 * time.Millisecond)
		d.bneck.SetMonitor(rec)
		for i := 0; i < 2; i++ {
			s, _ := d.pair(i, 0, cfg)
			s.Start()
		}
		if err := d.engine.RunFor(300 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		rec.Finish(d.engine.Now())
		return rec.Mean()
	}
	reno := run(DefaultConfig(Reno), nil)
	dctcp := run(DefaultConfig(DCTCP), aqm.NewSingleThresholdPackets(40, 1500))
	if dctcp >= reno {
		t.Fatalf("mean queue: dctcp=%.1f reno=%.1f; DCTCP should be far smaller", dctcp, reno)
	}
	if reno < 80 {
		t.Fatalf("reno mean queue %.1f packets: loss-driven TCP should ride near the 200-packet buffer", reno)
	}
}

func TestRenoECNHalvesOnMarkAndSetsCWR(t *testing.T) {
	pol := aqm.NewSingleThresholdPackets(20, 1500)
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	s, _ := d.pair(0, 0, DefaultConfig(RenoECN))
	s.Start()
	if err := d.engine.RunFor(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ECEAcks == 0 {
		t.Fatal("no ECE echoes received")
	}
	if st.ECNReductions == 0 {
		t.Fatal("no ECN-driven reductions")
	}
	// Loss-free operation: ECN should prevent overflow entirely here.
	if d.bneck.Stats().DroppedOverflow != 0 {
		t.Fatalf("drops despite ECN: %d", d.bneck.Stats().DroppedOverflow)
	}
	// The reductions must be once-per-window, not once-per-ACK: with a
	// ~100µs RTT and 200ms runtime there are ≤ 2000 windows.
	if st.ECNReductions > 2000 {
		t.Fatalf("ECNReductions = %d: reacting more than once per RTT", st.ECNReductions)
	}
}

func TestDelayedAckTransferCompletes(t *testing.T) {
	cfg := DefaultConfig(DCTCP)
	cfg.AckEvery = 2
	pol := aqm.NewSingleThresholdPackets(40, 1500)
	d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	const total = 512 * 1460
	s, r := d.pair(0, total, cfg)
	s.Start()
	if err := d.engine.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !s.Completed() || r.Received() != total {
		t.Fatalf("delayed-ack transfer incomplete: acked=%d", s.Acked())
	}
	// Delayed ACKs must roughly halve the ACK count.
	rs := r.Stats()
	if rs.AcksSent >= rs.Segments {
		t.Fatalf("acks=%d segments=%d: delayed ACKs not coalescing", rs.AcksSent, rs.Segments)
	}
}

func TestDCTCPEchoFlushesOnCEChange(t *testing.T) {
	// Directly exercise the receiver state machine without a network: CE
	// state changes must flush the pending delayed ACK with the old state.
	d := newDumbbell(t, 1, 1*netsim.Gbps, time.Microsecond, 100, nil)
	cfg := DefaultConfig(DCTCP)
	cfg.AckEvery = 2
	// The sender endpoint just records ACKs.
	rec := &ackRecorder{}
	d.senders[0].Register(9, rec)
	r := NewReceiver(d.rcvHost, 9, d.senders[0].ID(), cfg)

	deliver := func(seq int64, ce bool) {
		r.Deliver(&netsim.Packet{
			Flow: 9, Dst: d.rcvHost.ID(), Seq: seq, PayloadLen: 1460,
			Size: 1500, ECT: true, CE: ce,
		})
	}
	deliver(0, false)   // pending (1 of 2)
	deliver(1460, true) // CE flips: flush ACK(ECE=false) for first, then pend
	deliver(2920, true) // second CE packet completes the delayed pair → ACK(ECE=true)
	if err := d.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.acks) != 2 {
		t.Fatalf("got %d acks, want 2 (flush on CE change + delayed pair)", len(rec.acks))
	}
	if rec.acks[0].ECE || rec.acks[0].Ack != 1460 {
		t.Fatalf("first ack = %+v, want ECE=false ack=1460", rec.acks[0])
	}
	if !rec.acks[1].ECE || rec.acks[1].Ack != 4380 {
		t.Fatalf("second ack = %+v, want ECE=true ack=4380", rec.acks[1])
	}
}

func TestReceiverReassemblesOutOfOrder(t *testing.T) {
	d := newDumbbell(t, 1, 1*netsim.Gbps, time.Microsecond, 100, nil)
	rec := &ackRecorder{}
	d.senders[0].Register(9, rec)
	r := NewReceiver(d.rcvHost, 9, d.senders[0].ID(), DefaultConfig(Reno))
	seg := func(seq int64) *netsim.Packet {
		return &netsim.Packet{Flow: 9, Seq: seq, PayloadLen: 1460, Size: 1500}
	}
	r.Deliver(seg(0))
	r.Deliver(seg(2920)) // hole at 1460
	r.Deliver(seg(4380))
	if r.Received() != 1460 {
		t.Fatalf("Received = %d, want 1460 before hole filled", r.Received())
	}
	r.Deliver(seg(1460)) // fill the hole
	if r.Received() != 5840 {
		t.Fatalf("Received = %d, want 5840 after hole filled", r.Received())
	}
	if r.Stats().OutOfOrder != 2 {
		t.Fatalf("OutOfOrder = %d, want 2", r.Stats().OutOfOrder)
	}
	// Duplicate delivery re-ACKs but does not regress.
	r.Deliver(seg(0))
	if r.Received() != 5840 {
		t.Fatal("duplicate segment regressed rcvNxt")
	}
	if r.Stats().DupSegments != 1 {
		t.Fatalf("DupSegments = %d, want 1", r.Stats().DupSegments)
	}
}

func TestManyFlowsShareFairly(t *testing.T) {
	const n = 4
	pol := aqm.NewSingleThresholdPackets(40, 1500)
	d := newDumbbell(t, n, 1*netsim.Gbps, 25*time.Microsecond, 400, pol)
	var snds []*Sender
	for i := 0; i < n; i++ {
		s, _ := d.pair(i, 0, DefaultConfig(DCTCP))
		s.Start()
		snds = append(snds, s)
	}
	if err := d.engine.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var tot int64
	mins, maxs := int64(1<<62), int64(0)
	for _, s := range snds {
		a := s.Acked()
		tot += a
		if a < mins {
			mins = a
		}
		if a > maxs {
			maxs = a
		}
	}
	if tot == 0 {
		t.Fatal("no progress")
	}
	if float64(mins) < 0.3*float64(maxs) {
		t.Fatalf("unfair sharing: min=%d max=%d", mins, maxs)
	}
}

// Property: under arbitrary periodic loss, the transfer completes and the
// receiver's contiguous prefix equals the transfer size exactly.
func TestPropertyReliabilityUnderLoss(t *testing.T) {
	f := func(period uint8, sizeSeg uint8) bool {
		p := int(period%37) + 13 // drop every p-th packet, p ∈ [13,49]
		segs := int(sizeSeg%100) + 20
		total := int64(segs) * 1460
		drop := &dropEvery{period: p}
		d := newDumbbell(t, 1, 1*netsim.Gbps, 25*time.Microsecond, 1000, drop)
		s, r := d.pair(0, total, DefaultConfig(Reno))
		s.Start()
		if err := d.engine.RunFor(30 * time.Second); err != nil {
			return false
		}
		return s.Completed() && r.Received() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// --- test doubles -------------------------------------------------------

type ackRecorder struct{ acks []*netsim.Packet }

// Deliver copies the packet: delivered packets may be pooled and are
// recycled by the network as soon as Deliver returns.
func (a *ackRecorder) Deliver(p *netsim.Packet) {
	cp := *p
	a.acks = append(a.acks, &cp)
}

// dropNth drops exactly the n-th data arrival (1-based), then accepts.
type dropNth struct {
	n     int
	count int
}

func (d *dropNth) Name() string { return "drop-nth" }
func (d *dropNth) OnArrival(sim.Time, int, int) aqm.Verdict {
	d.count++
	if d.count == d.n {
		return aqm.Drop
	}
	return aqm.Accept
}
func (d *dropNth) OnDeparture(sim.Time, int) {}

// dropDuring drops every arrival before the given virtual instant.
type dropDuring struct {
	engine *sim.Engine
	until  sim.Time
}

func (d *dropDuring) Name() string { return "drop-during" }
func (d *dropDuring) OnArrival(now sim.Time, _, _ int) aqm.Verdict {
	if now < d.until {
		return aqm.Drop
	}
	return aqm.Accept
}
func (d *dropDuring) OnDeparture(sim.Time, int) {}

// dropEvery drops every period-th arrival.
type dropEvery struct {
	period int
	count  int
}

func (d *dropEvery) Name() string { return "drop-every" }
func (d *dropEvery) OnArrival(sim.Time, int, int) aqm.Verdict {
	d.count++
	if d.count%d.period == 0 {
		return aqm.Drop
	}
	return aqm.Accept
}
func (d *dropEvery) OnDeparture(sim.Time, int) {}

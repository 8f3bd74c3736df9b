package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/sim"
)

const pktSize = 1500

func linkCfg(rate Rate, delay time.Duration, bufferPkts int, policy aqm.Policy) PortConfig {
	return PortConfig{Rate: rate, Delay: delay, Buffer: bufferPkts * pktSize, Policy: policy}
}

// sink records every delivered packet.
type sink struct {
	pkts []*Packet
	at   []sim.Time
	eng  *sim.Engine
}

func (s *sink) Deliver(p *Packet) {
	s.pkts = append(s.pkts, p)
	if s.eng != nil {
		s.at = append(s.at, s.eng.Now())
	}
}

func TestRateSerialization(t *testing.T) {
	tests := []struct {
		rate Rate
		size int
		want time.Duration
	}{
		{10 * Gbps, 1500, 1200 * time.Nanosecond},
		{1 * Gbps, 1500, 12 * time.Microsecond},
		{1 * Gbps, 40, 320 * time.Nanosecond},
		{100 * Mbps, 1500, 120 * time.Microsecond},
		{0, 1500, 0},
	}
	for _, tt := range tests {
		if got := tt.rate.Serialization(tt.size); got != tt.want {
			t.Errorf("%v.Serialization(%d) = %v, want %v", tt.rate, tt.size, got, tt.want)
		}
	}
}

func TestRateString(t *testing.T) {
	tests := []struct {
		rate Rate
		want string
	}{
		{10 * Gbps, "10Gbps"},
		{1 * Mbps, "1Mbps"},
		{64 * Kbps, "64Kbps"},
		{Rate(1500), "1500bps"},
	}
	for _, tt := range tests {
		if got := tt.rate.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestRateBytesPerSecond(t *testing.T) {
	if got := (8 * Mbps).BytesPerSecond(); got != 1e6 {
		t.Fatalf("BytesPerSecond = %v", got)
	}
}

// buildPair wires host A — switch — host B with identical link configs and
// returns the pieces.
func buildPair(t *testing.T, e *sim.Engine, cfg PortConfig) (*Network, *Host, *Host, *Switch) {
	t.Helper()
	n := NewNetwork(e)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("sw")
	if err := n.Connect(a, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(b, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return n, a, b, sw
}

func TestEndToEndDeliveryAndLatency(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := linkCfg(10*Gbps, 25*time.Microsecond, 100, nil)
	_, a, b, _ := buildPair(t, e, cfg)

	rx := &sink{eng: e}
	b.Register(7, rx)
	pkt := &Packet{Flow: 7, Dst: b.ID(), Size: pktSize, PayloadLen: 1460}
	a.Send(pkt)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(rx.pkts))
	}
	if rx.pkts[0].Src != a.ID() {
		t.Fatalf("Src = %v, want %v", rx.pkts[0].Src, a.ID())
	}
	// Two hops: 2 × (1.2µs serialization + 25µs propagation) = 52.4µs.
	want := sim.FromDuration(52400 * time.Nanosecond)
	if rx.at[0] != want {
		t.Fatalf("arrival at %v, want %v", rx.at[0], want)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := linkCfg(1*Gbps, 10*time.Microsecond, 1000, nil)
	_, a, b, _ := buildPair(t, e, cfg)
	rx := &sink{}
	b.Register(1, rx)
	for i := 0; i < 50; i++ {
		pkt := &Packet{Flow: 1, Dst: b.ID(), Size: pktSize, Seq: int64(i)}
		a.Send(pkt)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 50 {
		t.Fatalf("delivered %d packets, want 50", len(rx.pkts))
	}
	for i, p := range rx.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("packet %d has seq %d: FIFO violated", i, p.Seq)
		}
	}
}

func TestBufferOverflowDropsTail(t *testing.T) {
	e := sim.NewEngine(1)
	// Tiny buffer: 5 packets.
	cfg := linkCfg(1*Gbps, 10*time.Microsecond, 5, nil)
	_, a, b, _ := buildPair(t, e, cfg)
	rx := &sink{}
	b.Register(1, rx)
	// Burst of 20 back-to-back sends: the first enters service
	// immediately, 5 queue, the rest drop at the host uplink.
	for i := 0; i < 20; i++ {
		a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize, Seq: int64(i)})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	drops := a.Uplink().Stats().DroppedOverflow
	if drops != 14 {
		t.Fatalf("dropped %d, want 14 (1 in service + 5 queued of 20)", drops)
	}
	if len(rx.pkts) != 6 {
		t.Fatalf("delivered %d, want 6", len(rx.pkts))
	}
}

func TestECNMarkingAtBottleneck(t *testing.T) {
	e := sim.NewEngine(1)
	// Mark everything above 2 packets of occupancy.
	mk := func() aqm.Policy { return aqm.NewSingleThresholdPackets(2, pktSize) }
	cfg := func() PortConfig { return linkCfg(1*Gbps, 10*time.Microsecond, 100, mk()) }
	n := NewNetwork(e)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("sw")
	if err := n.Connect(a, sw, cfg(), cfg()); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(b, sw, cfg(), cfg()); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	rx := &sink{}
	b.Register(1, rx)
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize, ECT: true, Seq: int64(i)})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var marked int
	for _, p := range rx.pkts {
		if p.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no packets were CE-marked despite queue above threshold")
	}
	if rx.pkts[0].CE {
		t.Fatal("first packet marked although the queue was empty at arrival")
	}
}

func TestNonECTPacketsAreNotMarked(t *testing.T) {
	e := sim.NewEngine(1)
	mk := aqm.NewSingleThresholdPackets(0, pktSize) // mark always
	cfg := linkCfg(1*Gbps, time.Microsecond, 100, mk)
	n := NewNetwork(e)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("sw")
	if err := n.Connect(a, sw, cfg, linkCfg(1*Gbps, time.Microsecond, 100, nil)); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(b, sw, linkCfg(1*Gbps, time.Microsecond, 100, nil), linkCfg(1*Gbps, time.Microsecond, 100, nil)); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	rx := &sink{}
	b.Register(1, rx)
	a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize /* ECT: false */})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 1 || rx.pkts[0].CE {
		t.Fatalf("non-ECT packet handling wrong: %+v", rx.pkts)
	}
}

func TestMultiHopRouting(t *testing.T) {
	// Paper's testbed shape: core switch with three edge switches, hosts
	// on the edges, aggregator on the core.
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	core := n.AddSwitch("core")
	agg := n.AddHost("aggregator")
	cfg := linkCfg(1*Gbps, 5*time.Microsecond, 100, nil)
	if err := n.Connect(agg, core, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	var workers []*Host
	for i := 0; i < 3; i++ {
		edge := n.AddSwitch("edge")
		if err := n.Connect(edge, core, cfg, cfg); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			w := n.AddHost("worker")
			if err := n.Connect(w, edge, cfg, cfg); err != nil {
				t.Fatal(err)
			}
			workers = append(workers, w)
		}
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	rx := &sink{}
	for i := range workers {
		agg.Register(FlowID(i), rx)
	}
	for i, w := range workers {
		w.Send(&Packet{Flow: FlowID(i), Dst: agg.ID(), Size: pktSize})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != len(workers) {
		t.Fatalf("delivered %d of %d worker packets", len(rx.pkts), len(workers))
	}
	for _, sw := range n.Switches() {
		if sw.DroppedNoRoute() != 0 {
			t.Fatalf("switch %s dropped %d packets without route", sw.Name(), sw.DroppedNoRoute())
		}
	}
}

func TestWorkConservationThroughput(t *testing.T) {
	// A saturated 1 Gbps port must deliver exactly back-to-back packets:
	// the n-th arrival is separated by one serialization time.
	e := sim.NewEngine(1)
	cfg := linkCfg(1*Gbps, 10*time.Microsecond, 10000, nil)
	_, a, b, _ := buildPair(t, e, cfg)
	rx := &sink{eng: e}
	b.Register(1, rx)
	const count = 100
	for i := 0; i < count; i++ {
		a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ser := sim.FromDuration((1 * Gbps).Serialization(pktSize))
	for i := 1; i < count; i++ {
		gap := rx.at[i] - rx.at[i-1]
		if gap != ser {
			t.Fatalf("inter-arrival %v at packet %d, want %v (work conservation)", gap, i, ser)
		}
	}
}

func TestHostSingleConnection(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	a := n.AddHost("a")
	s1 := n.AddSwitch("s1")
	s2 := n.AddSwitch("s2")
	cfg := linkCfg(1*Gbps, time.Microsecond, 10, nil)
	if err := n.Connect(a, s1, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(a, s2, cfg, cfg); err == nil {
		t.Fatal("second host connection should fail")
	}
}

func TestDuplicateEndpointPanics(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	h := n.AddHost("h")
	h.Register(1, &sink{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	h.Register(1, &sink{})
}

func TestUnknownFlowCounted(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := linkCfg(1*Gbps, time.Microsecond, 10, nil)
	_, a, b, _ := buildPair(t, e, cfg)
	a.Send(&Packet{Flow: 99, Dst: b.ID(), Size: pktSize})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.DroppedNoFlow() != 1 {
		t.Fatalf("DroppedNoFlow = %d, want 1", b.DroppedNoFlow())
	}
}

func TestNoRouteError(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	n.AddHost("a")
	sw := n.AddSwitch("sw")
	_ = sw
	// Disconnected topology: routes cannot be computed.
	if err := n.ComputeRoutes(); err == nil {
		t.Fatal("ComputeRoutes on disconnected topology should fail")
	}
}

func TestPortStatsAndAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := linkCfg(1*Gbps, time.Microsecond, 100, nil)
	_, a, b, sw := buildPair(t, e, cfg)
	rx := &sink{}
	b.Register(1, rx)
	for i := 0; i < 5; i++ {
		a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	up := a.Uplink()
	st := up.Stats()
	if st.Enqueued != 5 || st.Dequeued != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesSent != 5*pktSize {
		t.Fatalf("BytesSent = %d", st.BytesSent)
	}
	if up.Rate() != 1*Gbps {
		t.Fatalf("Rate = %v", up.Rate())
	}
	if up.QueueLen() != 0 || up.queue.len() != 0 {
		t.Fatal("queue not drained")
	}
	if up.Policy().Name() != "droptail" {
		t.Fatalf("Policy = %q", up.Policy().Name())
	}
	if up.Peer().ID() != sw.ID() {
		t.Fatal("Peer mismatch")
	}
	if got := sw.PortTo(b.ID()); got == nil || got.Peer().ID() != b.ID() {
		t.Fatal("PortTo(b) wrong")
	}
	if sw.PortTo(NodeID(999)) != nil {
		t.Fatal("PortTo(unknown) should be nil")
	}
	if sw.Ports() != 2 || sw.Port(0) == nil {
		t.Fatal("switch port accessors wrong")
	}
}

func TestQueueRecorderAggregatesAndSeries(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := linkCfg(1*Gbps, time.Microsecond, 1000, nil)
	_, a, b, _ := buildPair(t, e, cfg)
	rx := &sink{}
	b.Register(1, rx)
	rec := NewQueueRecorder(pktSize, 1) // sample every ns: effectively all
	a.Uplink().SetMonitor(rec)
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Finish(e.Now())
	if rec.Max() < 5 {
		t.Fatalf("recorder max = %v, want ≥ 5 packets for a 10-packet burst", rec.Max())
	}
	if rec.Min() != 0 {
		t.Fatalf("recorder min = %v, want 0 after drain", rec.Min())
	}
	if rec.Mean() <= 0 || rec.Mean() >= 10 {
		t.Fatalf("recorder mean = %v out of range", rec.Mean())
	}
	if rec.StdDev() <= 0 {
		t.Fatalf("recorder sd = %v, want > 0", rec.StdDev())
	}
	if rec.Series() == nil || rec.Series().Len() == 0 {
		t.Fatal("series missing")
	}
}

func TestQueueRecorderWarmupExcluded(t *testing.T) {
	rec := NewQueueRecorder(1, 0)
	rec.WarmupUntil = 1000
	rec.QueueChanged(0, 50)   // warmup: excluded from aggregates
	rec.QueueChanged(1000, 2) // first counted observation
	rec.QueueChanged(2000, 2)
	rec.Finish(3000)
	if rec.Max() != 2 {
		t.Fatalf("Max = %v, want 2 (warmup excluded)", rec.Max())
	}
	if rec.Series() != nil {
		t.Fatal("series should be nil when sampling disabled")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Flow: 3, Src: 1, Dst: 2, Seq: 100, PayloadLen: 1460}
	if got := p.String(); got == "" || got[:4] != "data" {
		t.Fatalf("String = %q", got)
	}
	p.IsAck = true
	if got := p.String(); got[:3] != "ack" {
		t.Fatalf("String = %q", got)
	}
}

// Property: for any burst size and buffer size, packets delivered + packets
// dropped = packets sent, and delivered count never exceeds buffer+1 for a
// single instantaneous burst (one in service plus a full queue).
func TestPropertyConservationUnderBursts(t *testing.T) {
	f := func(burst, buf uint8) bool {
		nPkts := int(burst%64) + 1
		bufPkts := int(buf%32) + 1
		e := sim.NewEngine(1)
		cfg := linkCfg(1*Gbps, time.Microsecond, bufPkts, nil)
		n := NewNetwork(e)
		a := n.AddHost("a")
		b := n.AddHost("b")
		sw := n.AddSwitch("sw")
		if err := n.Connect(a, sw, cfg, cfg); err != nil {
			return false
		}
		if err := n.Connect(b, sw, cfg, cfg); err != nil {
			return false
		}
		if err := n.ComputeRoutes(); err != nil {
			return false
		}
		rx := &sink{}
		b.Register(1, rx)
		for i := 0; i < nPkts; i++ {
			a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
		}
		if err := e.Run(); err != nil {
			return false
		}
		drops := int(a.Uplink().Stats().DroppedOverflow)
		if len(rx.pkts)+drops != nPkts {
			return false
		}
		maxDeliverable := bufPkts + 1
		if nPkts <= maxDeliverable {
			return len(rx.pkts) == nPkts
		}
		return len(rx.pkts) == maxDeliverable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	if n.Engine() != e {
		t.Fatal("Engine accessor")
	}
	h := n.AddHost("h")
	s := n.AddSwitch("s")
	if n.nodes[h.ID()] != Node(h) || n.nodes[s.ID()] != Node(s) {
		t.Fatal("Node accessor")
	}
	if len(n.Hosts()) != 1 || n.Hosts()[0] != h {
		t.Fatal("Hosts accessor")
	}
	if h.Network() != n {
		t.Fatal("host Network accessor")
	}
	if h.Name() != "h" || s.Name() != "s" {
		t.Fatal("names")
	}
}

func TestSwitchDropsWithoutRoute(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	a := n.AddHost("a")
	b := n.AddHost("b")
	sw := n.AddSwitch("sw")
	cfg := linkCfg(1*Gbps, time.Microsecond, 10, nil)
	if err := n.Connect(a, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(b, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	// Routes deliberately not computed: the switch has no entries.
	a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: 1500})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.DroppedNoRoute() != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", sw.DroppedNoRoute())
	}
}

func TestReceiverIgnoresDataAtUnknownSwitchlessHost(t *testing.T) {
	// Host.Receive for a registered flow delivers; SetTracer(nil) is a
	// no-op detach.
	e := sim.NewEngine(1)
	cfg := linkCfg(1*Gbps, time.Microsecond, 10, nil)
	_, a, b, _ := buildPair(t, e, cfg)
	rx := &sink{}
	b.Register(1, rx)
	a.Uplink().SetTracer(nil)
	a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: 1500})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 1 {
		t.Fatal("delivery broken with nil tracer")
	}
}

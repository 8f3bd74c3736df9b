package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// shardDiamond builds the ecmp_test diamond on a caller-owned engine so
// the same topology can run serial and partitioned.
func shardDiamond(t *testing.T, e *sim.Engine, salt uint64) (*Network, *Host, *Host) {
	t.Helper()
	n := NewNetwork(e)
	h0 := n.AddHost("h0")
	h1 := n.AddHost("h1")
	s0 := n.AddSwitch("s0")
	sA := n.AddSwitch("sA")
	sB := n.AddSwitch("sB")
	s3 := n.AddSwitch("s3")
	cfg := linkCfg(Gbps, 10*time.Microsecond, 1<<14, nil)
	for _, pair := range [][2]Node{{h0, s0}, {s0, sA}, {s0, sB}, {sA, s3}, {sB, s3}, {s3, h1}} {
		if err := n.Connect(pair[0], pair[1], cfg, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.ComputeRoutesECMP(salt); err != nil {
		t.Fatal(err)
	}
	return n, h0, h1
}

// driveDiamond pushes count packets per flow (flows 1..flows) from h0 to
// h1, spaced 5µs apart, allocating through the host pool, and returns
// the delivery counter.
func driveDiamond(h0, h1 *Host, flows, count int) *countingSink {
	sink := &countingSink{}
	for f := 1; f <= flows; f++ {
		h1.Register(FlowID(f), sink)
	}
	e := h0.Engine()
	sent := 0
	var step func()
	step = func() {
		for f := 1; f <= flows; f++ {
			pkt := h0.AllocPacket()
			pkt.Flow = FlowID(f)
			pkt.Dst = h1.ID()
			pkt.Size = 1500
			h0.Send(pkt)
		}
		sent++
		if sent < count {
			e.After(5*time.Microsecond, step)
		}
	}
	step()
	return sink
}

// TestShardedForwardingMatchesSerial runs cross-shard data through the
// ECMP diamond: the partitioned run must deliver exactly the serial
// run's packet count, exercising the sharded ship/resolveDst path, the
// host-pool allocation, and the barrier pool rebalancing (the receiver
// shard accumulates every packet, so the free lists must level).
func TestShardedForwardingMatchesSerial(t *testing.T) {
	const salt, flows, rounds = 7, 8, 80

	e := sim.NewEngine(3)
	_, h0, h1 := shardDiamond(t, e, salt)
	serial := driveDiamond(h0, h1, flows, rounds)
	if err := e.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if serial.n != flows*rounds {
		t.Fatalf("serial delivered %d, want %d", serial.n, flows*rounds)
	}

	se := sim.NewShardedEngine(3, 2)
	n, sh0, sh1 := shardDiamond(t, se.Shard(0), salt)
	if err := n.Partition(se, n.DefaultAssign(2)); err != nil {
		t.Fatal(err)
	}
	if !n.Sharded() {
		t.Fatal("network not sharded")
	}
	sharded := driveDiamond(sh0, sh1, flows, rounds)
	if err := se.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sharded.n != serial.n {
		t.Fatalf("sharded delivered %d, serial %d", sharded.n, serial.n)
	}
}

// queueLog records queue-change notifications for MultiMonitor fan-out.
type queueLog struct{ n int }

func (q *queueLog) QueueChanged(sim.Time, int) { q.n++ }

func TestMultiMonitorFansOut(t *testing.T) {
	e := sim.NewEngine(1)
	_, h0, h1 := shardDiamond(t, e, 7)
	a, b := &queueLog{}, &queueLog{}
	h0.Uplink().SetMonitor(MultiMonitor{a, b})
	sink := driveDiamond(h0, h1, 1, 10)
	if err := e.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sink.n != 10 {
		t.Fatalf("delivered %d, want 10", sink.n)
	}
	if a.n == 0 || a.n != b.n {
		t.Fatalf("monitors saw %d and %d changes, want equal and nonzero", a.n, b.n)
	}
}

func TestFaultKindString(t *testing.T) {
	for kind, want := range map[FaultKind]string{
		FaultCorrupt:  "corrupt",
		FaultLinkDown: "link-down",
	} {
		if got := kind.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}

// islands builds two pairs of hosts, each pair behind its own switch,
// and a trunk between the switches: short edge links inside an island,
// a long one across. Under DefaultAssign(2) each island is a shard and
// the trunk's two ports are the only ones that can deliver off-shard.
func islands(t *testing.T, e *sim.Engine, edge, trunk time.Duration) (*Network, []*Host, [2]*Switch) {
	t.Helper()
	n := NewNetwork(e)
	sw := [2]*Switch{n.AddSwitch("swA"), n.AddSwitch("swB")}
	var hosts []*Host
	for i := 0; i < 4; i++ {
		h := n.AddHost(fmt.Sprintf("h%d", i))
		cfg := linkCfg(Gbps, edge, 64, nil)
		if err := n.Connect(h, sw[i/2], cfg, cfg); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
	}
	cfg := linkCfg(Gbps, trunk, 64, nil)
	if err := n.Connect(sw[0], sw[1], cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return n, hosts, sw
}

// arrivalLog is an endpoint that writes down what reached its host, and
// when, in arrival order.
type arrivalLog struct {
	host *Host
	log  []string
}

func (a *arrivalLog) Deliver(p *Packet) {
	a.log = append(a.log, fmt.Sprintf("%d flow=%d seq=%d", a.host.Engine().Now(), p.Flow, p.Seq))
}

// driveIslands has every host send bursts to every other host at the
// same instants, so deliveries tie at each switch and queue behind one
// another on the trunk, and returns the per-host arrival logs.
func driveIslands(hosts []*Host, rounds int) []*arrivalLog {
	logs := make([]*arrivalLog, len(hosts))
	for i, h := range hosts {
		logs[i] = &arrivalLog{host: h}
	}
	// Sources start in reverse creation order, so the order their events
	// were scheduled in is the opposite of their domain order: a tie that
	// fell back on scheduling order would show.
	for i := len(hosts) - 1; i >= 0; i-- {
		for j, dst := range hosts {
			if i != j {
				dst.Register(FlowID(10*i+j), logs[j])
			}
		}
		src, sent := hosts[i], 0
		var step func()
		step = func() {
			for j, dst := range hosts {
				if dst == src {
					continue
				}
				pkt := src.AllocPacket()
				pkt.Flow, pkt.Dst, pkt.Size, pkt.Seq = FlowID(10*i+j), dst.ID(), 1500, int64(sent)
				src.Send(pkt)
			}
			if sent++; sent < rounds {
				src.Engine().After(60*time.Microsecond, step)
			}
		}
		src.Engine().Schedule(0, step)
	}
	return logs
}

// TestLookaheadIsShortestCrossShardLink partitions a network whose
// intra-shard links (2 µs) are shorter than the links the cut goes
// through (50 µs): the window is the longer delay, deliveries inside an
// island never see the barrier, and every host still receives exactly
// the serial run's packets at the serial run's instants in the serial
// run's order.
func TestLookaheadIsShortestCrossShardLink(t *testing.T) {
	const edge, trunk, rounds = 2 * time.Microsecond, 50 * time.Microsecond, 60

	e := sim.NewEngine(3)
	_, hosts, _ := islands(t, e, edge, trunk)
	want := driveIslands(hosts, rounds)
	if err := e.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	se := sim.NewShardedEngine(3, 2)
	n, hosts, sw := islands(t, se.Shard(0), edge, trunk)
	if err := n.Partition(se, n.DefaultAssign(2)); err != nil {
		t.Fatal(err)
	}
	if got := se.Lookahead(); got != sim.FromDuration(trunk) {
		t.Fatalf("lookahead %v, want the trunk's %v (the 2µs edge links stay inside a shard)", got, trunk)
	}
	for _, s := range sw {
		for i := 0; i < s.Ports(); i++ {
			_, toSwitch := s.Port(i).Peer().(*Switch)
			if s.Port(i).offShard != toSwitch {
				t.Fatalf("%s port %d: offShard = %v, trunk port = %v", s.Name(), i, s.Port(i).offShard, toSwitch)
			}
		}
	}
	got := driveIslands(hosts, rounds)
	if err := se.RunFor(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(want[i].log) != 3*rounds {
			t.Fatalf("serial host %d received %d packets, want %d", i, len(want[i].log), 3*rounds)
		}
		if !slices.Equal(got[i].log, want[i].log) {
			t.Fatalf("host %d arrivals diverged from serial:\nserial  %v\nsharded %v", i, want[i].log, got[i].log)
		}
	}
	// Per source, one of three destinations is next door: its delivery
	// and the two trunk-bound ones are local at the first hop, and only
	// the trunk hop itself is a message.
	st := se.ShardStats()
	if wantMsgs := uint64(4 * 2 * rounds); st.Messages != wantMsgs {
		t.Fatalf("%d barrier messages, want %d (one per packet that crosses the trunk)", st.Messages, wantMsgs)
	}
	if wantLocal := uint64(4*3*rounds + 4*rounds + 4*2*rounds); st.Colocated != wantLocal {
		t.Fatalf("%d co-located deliveries, want %d", st.Colocated, wantLocal)
	}
}

// TestSetDelayRefusesBelowLookahead: shortening a link that can deliver
// to another shard below the window would land packets in a past the
// other shard has already run; the port refuses. Links inside a shard,
// and every link of a serial network, may take any delay.
func TestSetDelayRefusesBelowLookahead(t *testing.T) {
	const edge, trunk = 2 * time.Microsecond, 50 * time.Microsecond
	se := sim.NewShardedEngine(1, 2)
	n, hosts, sw := islands(t, se.Shard(0), edge, trunk)
	if err := n.Partition(se, n.DefaultAssign(2)); err != nil {
		t.Fatal(err)
	}
	cut := sw[0].PortTo(sw[1].ID())
	cut.SetDelay(80 * time.Microsecond)
	cut.SetDelay(trunk)
	hosts[0].Uplink().SetDelay(0)
	sw[0].PortTo(hosts[0].ID()).SetDelay(time.Microsecond)
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, "netsim: ") {
				t.Fatalf("SetDelay below the lookahead on a cross-shard link: recovered %q, want a netsim: panic", msg)
			}
		}()
		cut.SetDelay(trunk - time.Nanosecond)
	}()
	if cut.Delay() != trunk {
		t.Fatalf("refused SetDelay still changed the delay to %v", cut.Delay())
	}

	_, _, serial := islands(t, sim.NewEngine(1), edge, trunk)
	serial[0].PortTo(serial[1].ID()).SetDelay(0)
}

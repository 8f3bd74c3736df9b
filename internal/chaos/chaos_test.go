package chaos

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

func testNet(t *testing.T, seed int64) (*sim.Engine, *netsim.Network, *netsim.Host, *netsim.Host, *netsim.Port) {
	t.Helper()
	e := sim.NewEngine(seed)
	n := netsim.NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	acc := netsim.PortConfig{Rate: 100 * netsim.Mbps, Delay: 10 * time.Microsecond, Buffer: 1 << 20}
	bn := netsim.PortConfig{Rate: 10 * netsim.Mbps, Delay: 10 * time.Microsecond, Buffer: 1 << 20}
	if err := n.Connect(src, sw, acc, acc); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(dst, sw, acc, bn); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return e, n, src, dst, sw.PortTo(dst.ID())
}

type countSink struct{ n int }

func (s *countSink) Deliver(*netsim.Packet) { s.n++ }

func sendAt(e *sim.Engine, n *netsim.Network, dst *netsim.Host, at time.Duration) {
	e.Schedule(sim.FromDuration(at), func() {
		pkt := n.AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		n.Hosts()[0].Send(pkt)
	})
}

func TestParsePlanDurationsAndUnknownFields(t *testing.T) {
	const good = `{
		"name": "demo",
		"events": [
			{"at": "25ms", "kind": "link-down", "link": "bottleneck", "down_for": "2ms"},
			{"at": 30000000, "kind": "corrupt", "link": "bottleneck", "prob": 0.1, "for": "5ms"}
		]
	}`
	p, err := ParsePlan([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if p.Events[0].At.Duration != 25*time.Millisecond {
		t.Fatalf("string duration parsed as %v", p.Events[0].At)
	}
	if p.Events[1].At.Duration != 30*time.Millisecond {
		t.Fatalf("numeric nanoseconds parsed as %v", p.Events[1].At)
	}

	if _, err := ParsePlan([]byte(`{"name":"x","events":[{"at":"1ms","kind":"link-up","link":"l","typo":1}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParsePlan([]byte(`{"name":"x","events":[{"at":"1ms","kind":"meteor","link":"l"}]}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ParsePlan([]byte(`{"events":[]}`)); err == nil {
		t.Fatal("unnamed plan accepted")
	}
	if _, err := ParsePlan([]byte(`{"name":"x","events":[{"at":"1ms","kind":"flap","link":"l","count":3,"down_for":"2ms","every":"1ms"}]}`)); err == nil {
		t.Fatal("flap with every <= down_for accepted")
	}
}

func TestPlanRoundTrip(t *testing.T) {
	p, err := Profile("flappy")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatalf("re-parse of marshalled profile: %v\n%s", err, data)
	}
	if back.Events[0].Every != p.Events[0].Every || back.Events[0].Jitter != p.Events[0].Jitter {
		t.Fatalf("round trip mutated the plan: %+v vs %+v", back.Events[0], p.Events[0])
	}
}

func TestProfilesAllValidAndSorted(t *testing.T) {
	names := Profiles()
	if len(names) < 5 {
		t.Fatalf("only %d built-in profiles", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Profiles() not sorted: %v", names)
		}
	}
	for _, name := range names {
		p, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %q invalid: %v", name, err)
		}
		if p.Span() <= 0 {
			t.Fatalf("profile %q has zero span", name)
		}
	}
	if _, err := Profile("no-such"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	// Fresh copies: mutating one must not leak into the next.
	a, _ := Profile("blackout")
	a.Events[0].At = D(time.Hour)
	b, _ := Profile("blackout")
	if b.Events[0].At.Duration == time.Hour {
		t.Fatal("Profile returns shared state")
	}
}

func TestFaultWindow(t *testing.T) {
	p := &Plan{Name: "w", Events: []Event{
		{At: D(30 * time.Millisecond), Kind: KindLinkUp, Link: "l"},
		{At: D(25 * time.Millisecond), Kind: KindLinkDown, Link: "l", DownFor: D(2 * time.Millisecond)},
		{At: D(20 * time.Millisecond), Kind: KindCorrupt, Link: "l", Prob: 0.1, For: D(15 * time.Millisecond)},
	}}
	start, end, ok := p.FaultWindow()
	if !ok || start != 20*time.Millisecond || end != 35*time.Millisecond {
		t.Fatalf("FaultWindow = %v, %v, %v", start, end, ok)
	}
	if _, _, ok := (&Plan{Name: "e"}).FaultWindow(); ok {
		t.Fatal("empty plan reported a window")
	}
}

func TestControllerUnboundLinkFails(t *testing.T) {
	_, n, _, _, port := testNet(t, 1)
	plan := &Plan{Name: "p", Events: []Event{
		{At: D(time.Millisecond), Kind: KindLinkUp, Link: "nowhere"},
	}}
	c := NewController(n, plan)
	c.BindLink("bottleneck", port)
	err := c.Apply()
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("Apply = %v, want unbound-link error", err)
	}
}

func TestControllerOutageDropsAndRecovers(t *testing.T) {
	e, n, _, dst, port := testNet(t, 1)
	sink := &countSink{}
	dst.Register(1, sink)

	plan := &Plan{Name: "p", Events: []Event{
		{At: D(5 * time.Millisecond), Kind: KindLinkDown, Link: "bottleneck",
			DownFor: D(5 * time.Millisecond), Flush: true},
	}}
	c := NewController(n, plan)
	c.BindLink("bottleneck", port)
	if err := c.Apply(); err != nil {
		t.Fatal(err)
	}
	// One packet before the outage, one during (dropped on arrival), one
	// after recovery.
	sendAt(e, n, dst, 1*time.Millisecond)
	sendAt(e, n, dst, 7*time.Millisecond)
	sendAt(e, n, dst, 12*time.Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.n != 2 {
		t.Fatalf("delivered %d, want 2 (before + after outage)", sink.n)
	}
	if port.Stats().DroppedLinkDown != 1 {
		t.Fatalf("DroppedLinkDown = %d, want 1", port.Stats().DroppedLinkDown)
	}
	if port.Down() {
		t.Fatal("port still down after down_for elapsed")
	}
}

// runFlapFingerprint runs the flappy profile against a stream of packets
// and fingerprints the outcome.
func runFlapFingerprint(t *testing.T, seed int64) [4]uint64 {
	e, n, _, dst, port := testNet(t, seed)
	sink := &countSink{}
	dst.Register(1, sink)

	plan, err := Profile("flappy")
	if err != nil {
		t.Fatal(err)
	}
	// Pull the flap forward so it overlaps the traffic.
	plan.Events[0].At = D(2 * time.Millisecond)
	c := NewController(n, plan)
	c.BindLink("bottleneck", port)
	if err := c.Apply(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sendAt(e, n, dst, time.Duration(i)*200*time.Microsecond)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := port.Stats()
	return [4]uint64{uint64(sink.n), st.DroppedLinkDown, st.Dequeued, uint64(e.Now())}
}

func TestFlapJitterDeterministic(t *testing.T) {
	a := runFlapFingerprint(t, 42)
	b := runFlapFingerprint(t, 42)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	cDiff := runFlapFingerprint(t, 43)
	if a == cDiff {
		t.Fatal("different seed produced identical run; jitter draws look disconnected from the engine RNG")
	}
	if a[1] == 0 {
		t.Fatal("flap plan dropped nothing; outage never overlapped traffic")
	}
}

func TestBurstLoadsQueueAndEvaporates(t *testing.T) {
	e, n, _, dst, port := testNet(t, 7)
	sink := &countSink{}
	dst.Register(1, sink)

	plan := &Plan{Name: "b", Events: []Event{
		// 10 Mbps of background onto a 10 Mbps link for 10 ms ≈ 8 pkts.
		{At: D(time.Millisecond), Kind: KindBurst, Link: "bottleneck",
			RateBps: 10_000_000, For: D(10 * time.Millisecond), PacketBytes: 1500},
	}}
	c := NewController(n, plan)
	c.BindLink("bottleneck", port)
	if err := c.Apply(); err != nil {
		t.Fatal(err)
	}
	sendAt(e, n, dst, 5*time.Millisecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.n != 1 {
		t.Fatalf("real traffic delivered %d, want 1", sink.n)
	}
	if dst.DroppedNoFlow() == 0 {
		t.Fatal("no burst packets evaporated at the receiver; injector never fired")
	}
	if port.Stats().Enqueued+port.Stats().Dequeued == 0 {
		t.Fatal("burst never touched the port")
	}
	// Every injected packet evaporates or is dropped, and either frees it.
	if live := n.LivePackets(); live != 0 {
		t.Fatalf("%d packets live after the run drained; the burst leaks from the pool", live)
	}
}

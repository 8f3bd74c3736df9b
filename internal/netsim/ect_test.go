package netsim

import (
	"math/rand"
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/sim"
)

// alwaysMark is a loss-substituting law that marks every arrival.
type alwaysMark struct{ substitute bool }

func (a *alwaysMark) Name() string                             { return "always-mark" }
func (a *alwaysMark) OnArrival(sim.Time, int, int) aqm.Verdict { return aqm.AcceptMark }
func (a *alwaysMark) OnDeparture(sim.Time, int)                {}
func (a *alwaysMark) MarkSubstitutesDrop() bool                { return a.substitute }

var _ aqm.LossSubstituting = (*alwaysMark)(nil)

func sendMixed(t *testing.T, policy aqm.Policy) (delivered, markedCE int, st PortStats) {
	t.Helper()
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	cfg := PortConfig{Rate: Gbps, Delay: time.Microsecond, Buffer: 1 << 20}
	up := PortConfig{Rate: Gbps, Delay: time.Microsecond, Buffer: 1 << 20, Policy: policy}
	if err := n.Connect(src, sw, up, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(dst, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	rx := &sink{}
	dst.Register(1, rx)
	for i := 0; i < 20; i++ {
		src.Send(&Packet{Flow: 1, Dst: dst.ID(), Size: 1500, ECT: i%2 == 0})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rx.pkts {
		if p.CE {
			markedCE++
		}
	}
	return len(rx.pkts), markedCE, src.Uplink().Stats()
}

func TestLossSubstitutingLawDropsNonECT(t *testing.T) {
	delivered, marked, st := sendMixed(t, &alwaysMark{substitute: true})
	// 10 ECT packets marked and delivered; 10 non-ECT dropped.
	if delivered != 10 || marked != 10 {
		t.Fatalf("delivered=%d marked=%d, want 10/10", delivered, marked)
	}
	if st.DroppedPolicy != 10 {
		t.Fatalf("DroppedPolicy = %d, want 10", st.DroppedPolicy)
	}
}

func TestInformationalMarkerPassesNonECT(t *testing.T) {
	// DCTCP-style threshold markers do not substitute drops: non-ECT
	// packets pass unmarked and unharmed.
	delivered, marked, st := sendMixed(t, &alwaysMark{substitute: false})
	if delivered != 20 || marked != 10 {
		t.Fatalf("delivered=%d marked=%d, want 20/10", delivered, marked)
	}
	if st.DroppedPolicy != 0 {
		t.Fatalf("DroppedPolicy = %d, want 0", st.DroppedPolicy)
	}
}

func TestCoDelDropsNonECTAtDequeue(t *testing.T) {
	// End-to-end: CoDel-ECN over a slow link with mixed traffic must mark
	// the ECT packets it would have dropped — and actually drop the
	// non-ECT ones.
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	codel := &aqm.CoDel{Target: 50 * time.Microsecond, Interval: 500 * time.Microsecond, ECN: true}
	slow := PortConfig{Rate: 100 * Mbps, Delay: time.Microsecond, Buffer: 1 << 20, Policy: codel}
	fast := PortConfig{Rate: 10 * Gbps, Delay: time.Microsecond, Buffer: 1 << 20}
	if err := n.Connect(src, sw, fast, fast); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(dst, sw, fast, slow); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	rx := &sink{}
	dst.Register(1, rx)
	rng := rand.New(rand.NewSource(2))
	// A long standing queue at 100 Mbps: sojourn far above target.
	for i := 0; i < 2000; i++ {
		src.Send(&Packet{Flow: 1, Dst: dst.ID(), Size: 1500, ECT: rng.Intn(2) == 0})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bneck := sw.PortTo(dst.ID())
	st := bneck.Stats()
	if st.Marked == 0 {
		t.Fatal("CoDel never marked")
	}
	if st.DroppedPolicy == 0 {
		t.Fatal("CoDel never dropped a non-ECT packet")
	}
	ce := 0
	for _, p := range rx.pkts {
		if p.CE {
			if !p.ECT {
				t.Fatal("CE set on a non-ECT packet")
			}
			ce++
		}
	}
	if ce != int(st.Marked) {
		t.Fatalf("delivered CE=%d vs port marked=%d", ce, st.Marked)
	}
}

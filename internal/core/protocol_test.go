package core

import (
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/control"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/netsim"
)

// protocolPresets is every preset constructor at its paper parameters.
func protocolPresets() []Protocol {
	return []Protocol{
		DCTCP(40, 1.0/16),
		DTDCTCP(30, 50, 1.0/16),
		DTDCTCP(34, 28, 1.0/16), // the testbed's hysteresis order
		D2TCPProto(40, 1.0/16),
		DCTCPPlus(40, 1.0/16),
		RenoECN(40),
		HULL(40, 0.95, 10*netsim.Gbps, 1.0/16),
		RenoPIE(10*netsim.Gbps, 200*time.Microsecond),
		RenoCoDel(200*time.Microsecond, 2*time.Millisecond),
		Reno(),
		CubicProto(),
	}
}

// analyticThreshold is the queue, in packets, at which the analyses say a
// rising queue is first marked — K for a single threshold, K1 for a
// double — after checking that the describing function and the fluid law
// report the same thresholds. ok is false for a law they do not model.
func analyticThreshold(t *testing.T, p Protocol) (k int, ok bool) {
	t.Helper()
	switch df := p.DF().(type) {
	case control.DCTCPDF:
		if law := p.MarkingLaw(); law != (fluid.SingleThreshold{K: df.K}) {
			t.Fatalf("%s: DF %+v, fluid law %+v", p.Name, df, law)
		}
		return int(df.K), true
	case control.DTDCTCPDF:
		if law := p.MarkingLaw(); law != (fluid.DoubleThreshold{K1: df.K1, K2: df.K2}) {
			t.Fatalf("%s: DF %+v, fluid law %+v", p.Name, df, law)
		}
		return int(df.K1), true
	case nil:
		if p.MarkingLaw() != nil {
			t.Fatalf("%s: a fluid law without a describing function", p.Name)
		}
		return 0, false
	default:
		t.Fatalf("%s: unexpected describing function %T", p.Name, df)
		return 0, false
	}
}

// firstMark replays a triangle that rises past peak through the
// protocol's switch marker and returns the queue, in packets of the
// protocol's size, at the first mark.
func firstMark(t *testing.T, p Protocol, peak int) int {
	t.Helper()
	ds, err := ReplayMarker(p, TriangleTrajectory(peak))
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	for _, d := range ds {
		if d.Marked {
			return d.QueuePkts
		}
	}
	t.Fatalf("%s: no mark on a triangle to %d packets", p.Name, peak)
	return 0
}

// TestFirstMarkAtAnalyticThreshold: the switch and the analyses read one
// description, so a rising queue is first marked where DF and MarkingLaw
// put the threshold — at any segment size, since thresholds count packets
// of the protocol's own size. At 9 000-byte packets a marker sized at
// preset time with 1 500-byte packets marked at 7 of DCTCP's 40.
func TestFirstMarkAtAnalyticThreshold(t *testing.T) {
	for _, mss := range []int{1460, 8960} {
		for _, p := range protocolPresets() {
			p.TCP.MSS = mss
			if err := p.validate(); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if p.law == lawNone {
				if p.NewPolicy(nil) != nil {
					t.Fatalf("%s: a queue law without a description", p.Name)
				}
				continue
			}
			k, ok := analyticThreshold(t, p)
			if !ok {
				continue
			}
			if got := firstMark(t, p, 2*k); got != k {
				t.Errorf("%s at MSS %d: first mark at %d packets, analyses say %d", p.Name, mss, got, k)
			}
		}
	}
}

// TestUnrunnableLawRefused: a threshold below one packet and a phantom
// queue that does not drain are refused by the runners and the analyses
// alike, naming the parameter.
func TestUnrunnableLawRefused(t *testing.T) {
	params := PaperAnalysisParams()
	for _, c := range []struct {
		p    Protocol
		want string
	}{
		{DCTCP(0, 1.0/16), "core: marking threshold K = 0 must be at least one packet"},
		{DTDCTCP(0, 50, 1.0/16), "core: marking threshold K1 = 0 must be at least one packet"},
		{DTDCTCP(30, 0, 1.0/16), "core: marking threshold K2 = 0 must be at least one packet"},
		{DTDCTCP(30, -1, 1.0/16), "core: marking threshold K2 = -1 must be at least one packet"},
		{HULL(0, 0.95, 10*netsim.Gbps, 1.0/16), "core: marking threshold K = 0 must be at least one packet"},
		{HULL(40, 0, 10*netsim.Gbps, 1.0/16), "core: phantom-queue drain 0 B/s must be positive"},
	} {
		errs := []error{c.p.validate()}
		if c.p.DF() != nil {
			_, err := AnalyzeStability(c.p, params, 10)
			errs = append(errs, err)
			_, err = FluidConfig(c.p, params, 10, time.Millisecond)
			errs = append(errs, err)
		}
		for _, err := range errs {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: err %v, want %q", c.p.Name, err, c.want)
			}
		}
	}
}

// FuzzProtocol holds a protocol to one description: a preset with its
// thresholds, segment size, gain and ACK ratio overridden is either
// refused with a core: reason or builds a switch marker whose first mark
// on a triangle lands where the analyses put the threshold.
func FuzzProtocol(f *testing.F) {
	f.Add(uint8(0), int16(40), int16(0), int16(0), int32(1460), 1.0/16, int8(1))
	f.Add(uint8(1), int16(0), int16(30), int16(50), int32(8960), 1.0/16, int8(2))
	f.Add(uint8(2), int16(0), int16(34), int16(28), int32(536), 1.0, int8(1))
	f.Add(uint8(0), int16(0), int16(0), int16(0), int32(1460), 1.0/16, int8(1))   // refused: K = 0
	f.Add(uint8(1), int16(0), int16(30), int16(-2), int32(1460), 1.0/16, int8(1)) // refused: K2 < 0
	f.Add(uint8(6), int16(9), int16(0), int16(0), int32(1460), 1.0/16, int8(1))   // HULL: K is not its threshold
	f.Add(uint8(9), int16(40), int16(0), int16(0), int32(0), 1.0/16, int8(1))     // refused: MSS = 0
	f.Add(uint8(5), int16(1), int16(0), int16(0), int32(1), 2.0, int8(0))         // refused: G = 2
	f.Fuzz(func(t *testing.T, idx uint8, k, k1, k2 int16, mss int32, g float64, ackEvery int8) {
		presets := protocolPresets()
		p := presets[int(idx)%len(presets)]
		p.K, p.K1, p.K2 = int(k), int(k1), int(k2)
		p.TCP.MSS, p.TCP.G, p.TCP.AckEvery = int(mss), g, int(ackEvery)
		if err := p.validate(); err != nil {
			if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("refusal without a core: reason: %v", err)
			}
			return
		}
		if (p.NewPolicy(nil) == nil) != (p.law == lawNone) {
			t.Fatalf("%s: NewPolicy disagrees with the law", p.Name)
		}
		if k, ok := analyticThreshold(t, p); ok {
			if got := firstMark(t, p, 2*k); got != k {
				t.Fatalf("%s (%+v): first mark at %d packets, analyses say %d", p.Name, p, got, k)
			}
		}
	})
}

package tcp

import (
	"math/rand"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// alphaHarness builds a minimal two-host topology with a live DCTCP
// sender whose ACK stream the test drives by hand, so marking patterns
// can be chosen adversarially instead of emerging from a queue.
func alphaHarness(t testing.TB, cfg Config) (*sim.Engine, *Sender) {
	t.Helper()
	e := sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	pc := netsim.PortConfig{Rate: netsim.Gbps, Delay: time.Microsecond, Buffer: 1 << 20}
	if err := n.Connect(src, sw, pc, pc); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(dst, sw, pc, pc); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	dst.Register(1, &ackRecorder{}) // absorb the data stream
	s := NewSender(src, 1, dst.ID(), 0 /* unlimited */, cfg)
	s.Start()
	return e, s
}

// Property: α stays in [0,1] under arbitrary marking sequences — random
// ECE patterns, random ACK strides (including window-spanning jumps and
// duplicate ACKs), random gains G, with retransmission timers live.
func TestPropertyAlphaStaysInUnitInterval(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(DCTCP)
		cfg.G = rng.Float64()
		if cfg.G == 0 {
			cfg.G = 1.0 / 16
		}
		e, s := alphaHarness(t, cfg)
		horizon := sim.TimeZero
		for step := 0; step < 400; step++ {
			// Let the sender transmit what its window allows, with a
			// bounded horizon so pending RTO timers cannot spin the
			// engine forever on an unlimited transfer.
			horizon += sim.Time(100 * time.Microsecond)
			if err := e.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
			outstanding := s.sndNxt - s.sndUna
			if outstanding <= 0 {
				continue
			}
			// ACK a random amount: sometimes a stale/duplicate ACK,
			// sometimes a partial window, sometimes everything.
			var ack int64
			switch rng.Intn(10) {
			case 0:
				ack = s.sndUna // duplicate
			case 1:
				ack = s.sndNxt // whole window
			default:
				ack = s.sndUna + 1 + rng.Int63n(outstanding)
			}
			s.Deliver(&netsim.Packet{
				Flow:  1,
				IsAck: true,
				Ack:   ack,
				ECE:   rng.Intn(2) == 0,
			})
			if a := s.Alpha(); a < 0 || a > 1 {
				t.Fatalf("seed %d step %d: alpha %g escaped [0,1] (G=%g)", seed, step, a, cfg.G)
			}
			if s.cwnd < float64(s.mss) {
				t.Fatalf("seed %d step %d: cwnd %g below one MSS", seed, step, s.cwnd)
			}
		}
		if s.stats.AlphaUpdates == 0 {
			t.Fatalf("seed %d: no α windows closed — property never exercised", seed)
		}
	}
}

// Property: under saturation marking α climbs monotonically toward 1;
// once the marks stop it decays monotonically toward 0. Both directions
// follow the EWMA α ← (1−g)α + g·frac without ever overshooting.
func TestPropertyAlphaConvergesUnderExtremeMarking(t *testing.T) {
	cfg := DefaultConfig(DCTCP)
	e, s := alphaHarness(t, cfg)
	horizon := sim.TimeZero
	drive := func(steps int, ece bool) {
		for i := 0; i < steps; i++ {
			horizon += sim.Time(100 * time.Microsecond)
			if err := e.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
			if s.sndNxt == s.sndUna {
				continue
			}
			prev := s.Alpha()
			s.Deliver(&netsim.Packet{Flow: 1, IsAck: true, Ack: s.sndNxt, ECE: ece})
			a := s.Alpha()
			if ece && a < prev-1e-12 {
				t.Fatalf("step %d: α decreased (%g → %g) while every byte was marked", i, prev, a)
			}
			if !ece && a > prev+1e-12 {
				t.Fatalf("step %d: α increased (%g → %g) with no marks at all", i, prev, a)
			}
		}
	}
	drive(200, true)
	if a := s.Alpha(); a < 0.9 || a > 1 {
		t.Fatalf("α = %g after sustained marking, want near 1", a)
	}
	drive(200, false)
	if a := s.Alpha(); a < 0 || a > 0.1 {
		t.Fatalf("α = %g after marks ceased, want near 0", a)
	}
}

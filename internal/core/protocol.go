// Package core ties the substrates together into the paper's experiments:
// protocol presets (DCTCP, DT-DCTCP, TCP baselines), the dumbbell scenario
// behind Figs. 1 and 10–12, the simulated NetFPGA testbed behind Figs. 14
// and 15, and bridges into the fluid-model and describing-function
// analyses of Sections IV–V.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/control"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/tcp"
)

// Protocol bundles one end-to-end congestion-control configuration: the
// end-host transport settings and a factory for the switch queue law.
type Protocol struct {
	// Name labels the protocol in results.
	Name string
	// TCP is the endpoint configuration.
	TCP tcp.Config
	// NewPolicy returns a fresh queue law for one bottleneck port; nil
	// means DropTail. Runners pass the engine's seeded source so
	// randomized laws (PIE) stay a pure function of the run seed;
	// deterministic laws ignore the argument, and offline contexts
	// (ReplayMarker) may pass nil.
	NewPolicy func(rng *rand.Rand) aqm.Policy

	// K, K1, K2 record the marking thresholds in packets (K for
	// single-threshold, K1/K2 for double) so analyses can mirror the
	// simulated configuration. Zero when not applicable.
	K, K1, K2 int
}

// PacketSize returns the wire size of a full segment under this protocol.
func (p Protocol) PacketSize() int { return p.TCP.PacketSize() }

// validate refuses the dials tcp's sanitize would otherwise rewrite to
// their defaults — a G outside (0, 1], an AckEvery below 1, a
// non-positive RTOMin or RTOInitial — and a negative marking threshold.
// Every runner's validation calls it.
func (p Protocol) validate() error {
	c := p.TCP
	if err := validG(c.G); err != nil {
		return err
	}
	switch {
	case c.AckEvery < 1:
		return fmt.Errorf("core: AckEvery = %d must be at least 1", c.AckEvery)
	case c.RTOMin <= 0:
		return fmt.Errorf("core: RTOMin = %v must be positive", c.RTOMin)
	case c.RTOInitial <= 0:
		return fmt.Errorf("core: RTOInitial = %v must be positive", c.RTOInitial)
	case p.K < 0 || p.K1 < 0 || p.K2 < 0:
		return fmt.Errorf("core: marking thresholds K = %d, K1 = %d, K2 = %d must not be negative", p.K, p.K1, p.K2)
	}
	return nil
}

// validG refuses a DCTCP gain outside (0, 1], NaN included: at g ≤ 0 α
// never tracks the marked fraction and the sender ignores ECN. Protocol
// validation and every analysis entry point call it.
func validG(g float64) error {
	if !(g > 0 && g <= 1) {
		return fmt.Errorf("core: G = %g must be in (0, 1]", g)
	}
	return nil
}

// randomizedLaw reports whether the protocol's queue law draws from its
// random source while the run executes, not only at construction.
func (p Protocol) randomizedLaw() bool {
	if p.NewPolicy == nil {
		return false
	}
	switch p.NewPolicy(nil).(type) {
	case *aqm.PIE:
		return true
	}
	return false
}

// DF returns the describing function matching the protocol's marker, or
// nil for unmarked protocols.
func (p Protocol) DF() control.DF {
	switch {
	case p.K1 > 0 && p.K2 > 0:
		return control.DTDCTCPDF{K1: float64(p.K1), K2: float64(p.K2)}
	case p.K > 0:
		return control.DCTCPDF{K: float64(p.K)}
	default:
		return nil
	}
}

// MarkingLaw returns the fluid-model marking law matching the protocol's
// marker, or nil for unmarked protocols.
func (p Protocol) MarkingLaw() fluid.MarkingLaw {
	switch {
	case p.K1 > 0 && p.K2 > 0:
		return fluid.DoubleThreshold{K1: float64(p.K1), K2: float64(p.K2)}
	case p.K > 0:
		return fluid.SingleThreshold{K: float64(p.K)}
	default:
		return nil
	}
}

// refQueue is the reference queue the fluid model takes its RTT at: K,
// or (K1+K2)/2 for DT-DCTCP.
func (p Protocol) refQueue() float64 {
	if p.K2 > 0 {
		return float64(p.K1+p.K2) / 2
	}
	return float64(p.K)
}

// DCTCP returns the paper's baseline: DCTCP endpoints with a
// single-threshold marker at kPackets and gain g.
func DCTCP(kPackets int, g float64) Protocol {
	cfg := tcp.DefaultConfig(tcp.DCTCP)
	cfg.G = g
	pktSize := cfg.PacketSize()
	return Protocol{
		Name: fmt.Sprintf("dctcp(K=%d)", kPackets),
		TCP:  cfg,
		NewPolicy: func(*rand.Rand) aqm.Policy {
			return aqm.NewSingleThresholdPackets(kPackets, pktSize)
		},
		K: kPackets,
	}
}

// DTDCTCP returns the paper's contribution: DCTCP endpoints with the
// double-threshold marker (mark-on at k1, mark-off at k2, in packets).
func DTDCTCP(k1, k2 int, g float64) Protocol {
	cfg := tcp.DefaultConfig(tcp.DCTCP)
	cfg.G = g
	pktSize := cfg.PacketSize()
	return Protocol{
		Name: fmt.Sprintf("dt-dctcp(K1=%d,K2=%d)", k1, k2),
		TCP:  cfg,
		NewPolicy: func(*rand.Rand) aqm.Policy {
			return aqm.NewDoubleThresholdPackets(k1, k2, pktSize)
		},
		K1: k1,
		K2: k2,
	}
}

// D2TCPProto returns the deadline-aware DCTCP successor the paper cites
// (Vamanan et al.): DCTCP's marker at kPackets with D2TCP endpoints whose
// backoff penalty is α^d for deadline urgency d.
func D2TCPProto(kPackets int, g float64) Protocol {
	cfg := tcp.DefaultConfig(tcp.D2TCP)
	cfg.G = g
	pktSize := cfg.PacketSize()
	return Protocol{
		Name: fmt.Sprintf("d2tcp(K=%d)", kPackets),
		TCP:  cfg,
		NewPolicy: func(*rand.Rand) aqm.Policy {
			return aqm.NewSingleThresholdPackets(kPackets, pktSize)
		},
		K: kPackets,
	}
}

// DCTCPPlus returns DCTCP+ (SNIPPETS Snippet 1 / ns-3 TcpDctcpPlus):
// DCTCP's single-threshold marker at kPackets with endpoints running the
// slow-timer backoff state machine — once the window floor is reached
// under persistent congestion, senders pace transmissions by a
// randomized, additively-grown slow timer instead of hammering
// synchronized bursts. A sender-side rival to DT-DCTCP on the incast
// scenarios.
func DCTCPPlus(kPackets int, g float64) Protocol {
	cfg := tcp.DefaultConfig(tcp.DCTCPPlus)
	cfg.G = g
	pktSize := cfg.PacketSize()
	return Protocol{
		Name: fmt.Sprintf("dctcp+(K=%d)", kPackets),
		TCP:  cfg,
		NewPolicy: func(*rand.Rand) aqm.Policy {
			return aqm.NewSingleThresholdPackets(kPackets, pktSize)
		},
		K: kPackets,
	}
}

// HULL returns HULL-style phantom-queue marking (Alizadeh et al.,
// NSDI'12): DCTCP endpoints marked by a virtual queue that drains at
// gamma times the bottleneck line rate and trips a single threshold at
// kPackets of virtual occupancy. With gamma < 1 utilization pins near
// gamma while the real queue stays close to empty. The marker needs the
// line rate, so callers pass the bottleneck rate the way RenoPIE does.
// K is left zero: the fluid and describing-function analyses model
// real-queue markers, and a virtual-queue threshold is not comparable —
// analytic checks skip with that reason rather than comparing apples to
// phantoms.
func HULL(kPackets int, gamma float64, rate netsim.Rate, g float64) Protocol {
	cfg := tcp.DefaultConfig(tcp.DCTCP)
	cfg.G = g
	pktSize := cfg.PacketSize()
	drain := gamma * rate.BytesPerSecond()
	return Protocol{
		Name: fmt.Sprintf("hull(K=%d,gamma=%.2f)", kPackets, gamma),
		TCP:  cfg,
		NewPolicy: func(*rand.Rand) aqm.Policy {
			return aqm.NewPhantomQueue(drain, aqm.NewSingleThresholdPackets(kPackets, pktSize))
		},
	}
}

// Reno returns plain loss-driven NewReno over DropTail, the conventional
// TCP the paper's introduction argues against.
func Reno() Protocol {
	return Protocol{Name: "reno", TCP: tcp.DefaultConfig(tcp.Reno)}
}

// RenoPIE returns NewReno endpoints with the RFC3168 ECN response over a
// PIE queue (RFC 8033) draining at the given rate and targeting the given
// queueing delay — the delay-targeting AQM contemporaneous with the paper,
// included as an ablation baseline. PIE's randomized marking draws from
// the source the runner injects (the engine's), so the run seed alone
// reproduces it.
func RenoPIE(drainRate netsim.Rate, target time.Duration) Protocol {
	cfg := tcp.DefaultConfig(tcp.RenoECN)
	return Protocol{
		Name: fmt.Sprintf("reno-pie(target=%v)", target),
		TCP:  cfg,
		NewPolicy: func(rng *rand.Rand) aqm.Policy {
			return &aqm.PIE{
				Target:       target,
				TUpdate:      target, // RFC suggests TUpdate ≈ target
				DrainRateBps: drainRate.BytesPerSecond(),
				ECN:          true,
				Rand:         rng,
			}
		},
	}
}

// RenoCoDel returns NewReno/ECN endpoints over a CoDel queue (RFC 8289)
// with the given sojourn target and interval — the second delay-targeting
// AQM of the paper's era, acting at dequeue time on measured sojourn.
func RenoCoDel(target, interval time.Duration) Protocol {
	cfg := tcp.DefaultConfig(tcp.RenoECN)
	return Protocol{
		Name: fmt.Sprintf("reno-codel(target=%v)", target),
		TCP:  cfg,
		NewPolicy: func(*rand.Rand) aqm.Policy {
			return &aqm.CoDel{Target: target, Interval: interval, ECN: true}
		},
	}
}

// CubicProto returns loss-driven CUBIC (RFC 8312) over DropTail — the
// Linux default TCP of the paper's era, with no ECN.
func CubicProto() Protocol {
	return Protocol{Name: "cubic", TCP: tcp.DefaultConfig(tcp.Cubic)}
}

// RenoECN returns NewReno with the classic RFC3168 ECN response over a
// single-threshold marker, an intermediate baseline between Reno and
// DCTCP.
func RenoECN(kPackets int) Protocol {
	cfg := tcp.DefaultConfig(tcp.RenoECN)
	pktSize := cfg.PacketSize()
	return Protocol{
		Name: fmt.Sprintf("reno-ecn(K=%d)", kPackets),
		TCP:  cfg,
		NewPolicy: func(*rand.Rand) aqm.Policy {
			return aqm.NewSingleThresholdPackets(kPackets, pktSize)
		},
		K: kPackets,
	}
}

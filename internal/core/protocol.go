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
// end-host transport settings and the switch queue law, described once as
// data that the switch (NewPolicy) and the analyses (DF, MarkingLaw) both
// read.
type Protocol struct {
	// Name labels the protocol in results.
	Name string
	// TCP is the endpoint configuration.
	TCP tcp.Config

	// K, K1, K2 are the marking thresholds in packets of the protocol's
	// own size: K for single-threshold, K1/K2 for double. Zero when not
	// applicable.
	K, K1, K2 int

	// law is the queue law. The other laws' parameters: HULL's
	// virtual-queue threshold in packets, HULL's and PIE's drain in
	// bytes/s, PIE's and CoDel's delay target, CoDel's interval.
	law      lawKind
	phantomK int
	drain    float64
	target   time.Duration
	interval time.Duration
}

// lawKind names a protocol's switch queue law.
type lawKind uint8

const (
	lawNone    lawKind = iota // DropTail
	lawSingle                 // DCTCP's marker at K
	lawDouble                 // DT-DCTCP's marker at K1, K2
	lawPhantom                // HULL
	lawPIE
	lawCoDel
)

// PacketSize returns the wire size of a full segment under this protocol.
func (p Protocol) PacketSize() int { return p.TCP.PacketSize() }

// NewPolicy returns a fresh queue law for one bottleneck port, or nil for
// DropTail; thresholds count packets of PacketSize at the call. Runners
// pass the engine's seeded source so randomized laws (PIE) stay a pure
// function of the run seed; deterministic laws ignore the argument, and
// offline contexts (ReplayMarker) may pass nil.
func (p Protocol) NewPolicy(rng *rand.Rand) aqm.Policy {
	pktSize := p.PacketSize()
	switch p.law {
	case lawSingle:
		return aqm.NewSingleThresholdPackets(p.K, pktSize)
	case lawDouble:
		return aqm.NewDoubleThresholdPackets(p.K1, p.K2, pktSize)
	case lawPhantom:
		return aqm.NewPhantomQueue(p.drain, aqm.NewSingleThresholdPackets(p.phantomK, pktSize))
	case lawPIE:
		return &aqm.PIE{
			Target:       p.target,
			TUpdate:      p.target, // RFC suggests TUpdate ≈ target
			DrainRateBps: p.drain,
			ECN:          true,
			Rand:         rng,
		}
	case lawCoDel:
		return &aqm.CoDel{Target: p.target, Interval: p.interval, ECN: true}
	}
	return nil
}

// validate refuses the dials tcp would misread — an unknown Variant, a
// non-positive MSS, a G outside (0, 1], an AckEvery below 1, a
// non-positive RTOMin or RTOInitial — a threshold below one packet, at
// which the switch marks an empty queue and the describing function's
// gain 1/K is infinite, and a phantom queue that does not drain. Every
// runner and analysis calls it.
func (p Protocol) validate() error {
	c := p.TCP
	if err := validG(c.G); err != nil {
		return err
	}
	const belowOne = "core: marking threshold %s = %d must be at least one packet"
	switch {
	case c.Variant.String() == "invalid": // String names every variant tcp runs
		return fmt.Errorf("core: Variant = %d is not a tcp variant", c.Variant)
	case c.MSS <= 0:
		return fmt.Errorf("core: MSS = %d must be positive", c.MSS)
	case c.AckEvery < 1:
		return fmt.Errorf("core: AckEvery = %d must be at least 1", c.AckEvery)
	case c.RTOMin <= 0:
		return fmt.Errorf("core: RTOMin = %v must be positive", c.RTOMin)
	case c.RTOInitial <= 0:
		return fmt.Errorf("core: RTOInitial = %v must be positive", c.RTOInitial)
	case p.law == lawSingle && p.K < 1:
		return fmt.Errorf(belowOne, "K", p.K)
	case p.law == lawDouble && p.K1 < 1:
		return fmt.Errorf(belowOne, "K1", p.K1)
	case p.law == lawDouble && p.K2 < 1:
		return fmt.Errorf(belowOne, "K2", p.K2)
	case p.law == lawPhantom && p.phantomK < 1:
		return fmt.Errorf(belowOne, "K", p.phantomK)
	case p.law == lawPhantom && !(p.drain > 0):
		return fmt.Errorf("core: phantom-queue drain %g B/s must be positive", p.drain)
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

// DF returns the describing function matching the protocol's marker, or
// nil for a law the analyses do not model.
func (p Protocol) DF() control.DF {
	switch p.law {
	case lawDouble:
		return control.DTDCTCPDF{K1: float64(p.K1), K2: float64(p.K2)}
	case lawSingle:
		return control.DCTCPDF{K: float64(p.K)}
	}
	return nil
}

// MarkingLaw returns the fluid-model marking law matching the protocol's
// marker, or nil for a law the analyses do not model.
func (p Protocol) MarkingLaw() fluid.MarkingLaw {
	switch p.law {
	case lawDouble:
		return fluid.DoubleThreshold{K1: float64(p.K1), K2: float64(p.K2)}
	case lawSingle:
		return fluid.SingleThreshold{K: float64(p.K)}
	}
	return nil
}

// refQueue is the reference queue the fluid model takes its RTT at: K,
// or (K1+K2)/2 for DT-DCTCP.
func (p Protocol) refQueue() float64 {
	if p.law == lawDouble {
		return float64(p.K1+p.K2) / 2
	}
	return float64(p.K)
}

// endpoints is the default configuration of variant v with gain g.
func endpoints(v tcp.Variant, g float64) tcp.Config {
	cfg := tcp.DefaultConfig(v)
	cfg.G = g
	return cfg
}

// singleThreshold puts cfg's endpoints behind DCTCP's single-threshold
// marker at kPackets, named after their variant.
func singleThreshold(cfg tcp.Config, kPackets int) Protocol {
	return Protocol{
		Name: fmt.Sprintf("%v(K=%d)", cfg.Variant, kPackets),
		TCP:  cfg,
		K:    kPackets,
		law:  lawSingle,
	}
}

// DCTCP returns the paper's baseline: DCTCP endpoints with a
// single-threshold marker at kPackets and gain g.
func DCTCP(kPackets int, g float64) Protocol {
	return singleThreshold(endpoints(tcp.DCTCP, g), kPackets)
}

// DTDCTCP returns the paper's contribution: DCTCP endpoints with the
// double-threshold marker (mark-on at k1, mark-off at k2, in packets).
func DTDCTCP(k1, k2 int, g float64) Protocol {
	return Protocol{
		Name: fmt.Sprintf("dt-dctcp(K1=%d,K2=%d)", k1, k2),
		TCP:  endpoints(tcp.DCTCP, g),
		K1:   k1,
		K2:   k2,
		law:  lawDouble,
	}
}

// D2TCPProto returns the deadline-aware DCTCP successor the paper cites
// (Vamanan et al.): DCTCP's marker at kPackets with D2TCP endpoints whose
// backoff penalty is α^d for deadline urgency d.
func D2TCPProto(kPackets int, g float64) Protocol {
	return singleThreshold(endpoints(tcp.D2TCP, g), kPackets)
}

// DCTCPPlus returns DCTCP+ (SNIPPETS Snippet 1 / ns-3 TcpDctcpPlus):
// DCTCP's single-threshold marker at kPackets with endpoints running the
// slow-timer backoff state machine — once the window floor is reached
// under persistent congestion, senders pace transmissions by a
// randomized, additively-grown slow timer instead of hammering
// synchronized bursts. A sender-side rival to DT-DCTCP on the incast
// scenarios.
func DCTCPPlus(kPackets int, g float64) Protocol {
	return singleThreshold(endpoints(tcp.DCTCPPlus, g), kPackets)
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
	return Protocol{
		Name:     fmt.Sprintf("hull(K=%d,gamma=%.2f)", kPackets, gamma),
		TCP:      endpoints(tcp.DCTCP, g),
		law:      lawPhantom,
		phantomK: kPackets,
		drain:    gamma * rate.BytesPerSecond(),
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
	return Protocol{
		Name:   fmt.Sprintf("reno-pie(target=%v)", target),
		TCP:    tcp.DefaultConfig(tcp.RenoECN),
		law:    lawPIE,
		drain:  drainRate.BytesPerSecond(),
		target: target,
	}
}

// RenoCoDel returns NewReno/ECN endpoints over a CoDel queue (RFC 8289)
// with the given sojourn target and interval — the second delay-targeting
// AQM of the paper's era, acting at dequeue time on measured sojourn.
func RenoCoDel(target, interval time.Duration) Protocol {
	return Protocol{
		Name:     fmt.Sprintf("reno-codel(target=%v)", target),
		TCP:      tcp.DefaultConfig(tcp.RenoECN),
		law:      lawCoDel,
		target:   target,
		interval: interval,
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
	return singleThreshold(tcp.DefaultConfig(tcp.RenoECN), kPackets)
}

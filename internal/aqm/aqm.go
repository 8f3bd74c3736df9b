// Package aqm implements the queue laws compared in the paper: plain
// DropTail, the single-threshold ECN marking of DCTCP and the paper's
// double-threshold marking (DT-DCTCP), beside the PIE, CoDel and phantom
// queue baselines.
//
// A Policy decides, per arriving packet, whether the packet is accepted,
// accepted with an ECN Congestion-Experienced mark, or dropped. The
// switch port owns the physical buffer: running out of buffer always
// drops, regardless of policy.
package aqm

import (
	"time"

	"dtdctcp/internal/invariant"
	"dtdctcp/internal/sim"
)

// assertOccupancy checks, under -tags invariants, that the port reported a
// physically possible queue occupancy to the policy.
func assertOccupancy(qlenBytes int) {
	if invariant.Enabled {
		invariant.Assert(qlenBytes >= 0, "aqm: negative queue occupancy %d", qlenBytes)
	}
}

// Verdict is a marking decision for one arriving packet.
type Verdict int

// Verdicts a policy can return for an arriving packet.
const (
	// Accept enqueues the packet unmodified.
	Accept Verdict = iota + 1
	// AcceptMark enqueues the packet with the CE (Congestion
	// Experienced) codepoint set.
	AcceptMark
	// Drop discards the packet.
	Drop
)

// String names the verdict for traces.
func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case AcceptMark:
		return "mark"
	case Drop:
		return "drop"
	default:
		return "invalid"
	}
}

// Policy is a queue law attached to one switch port. Implementations are
// single-goroutine, matching the event-driven simulator.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// OnArrival is consulted when a packet of size pktBytes arrives at
	// a port whose queue currently holds qlenBytes, at virtual instant
	// now. The verdict applies to the arriving packet.
	OnArrival(now sim.Time, qlenBytes, pktBytes int) Verdict
	// OnDeparture informs the policy that the queue has drained to
	// qlenBytes after a packet left. Policies with hysteresis or timers
	// update their state here.
	OnDeparture(now sim.Time, qlenBytes int)
}

// LossSubstituting is implemented by queue laws whose AcceptMark verdict
// substitutes for a drop (PIE, CoDel in ECN mode): for those laws a
// non-ECT packet must be dropped when the law signals congestion, per
// RFC 3168 §5. Threshold markers (DCTCP, DT-DCTCP) do not implement it:
// their marks are informational and non-ECT packets pass unharmed.
type LossSubstituting interface {
	// MarkSubstitutesDrop reports that AcceptMark stands in for Drop.
	MarkSubstitutesDrop() bool
}

// DequeuePolicy is implemented by queue laws that decide at dequeue time
// (CoDel). The port consults OnDequeue for every departing packet with
// its measured sojourn time; Drop discards the packet instead of
// transmitting it, AcceptMark sets CE on ECT packets.
type DequeuePolicy interface {
	Policy
	// OnDequeue returns the verdict for the departing packet given its
	// queue sojourn time and the occupancy left behind.
	OnDequeue(now sim.Time, sojourn time.Duration, qlenBytes int) Verdict
}

// DropTail accepts every packet; the port's buffer limit provides the only
// drop behaviour. It is the paper's configuration for the non-bottleneck
// testbed switches.
type DropTail struct{}

// NewDropTail returns the pass-through policy.
func NewDropTail() *DropTail { return &DropTail{} }

// Name implements Policy.
func (*DropTail) Name() string { return "droptail" }

// OnArrival implements Policy: always accept (the port drops on overflow).
//
//dtlint:hotpath
func (*DropTail) OnArrival(sim.Time, int, int) Verdict { return Accept }

// OnDeparture implements Policy.
//
//dtlint:hotpath
func (*DropTail) OnDeparture(sim.Time, int) {}

// SingleThreshold is the DCTCP switch law: mark the arriving packet with
// CE iff the instantaneous buffer occupancy is at least K at arrival.
type SingleThreshold struct {
	// K is the marking threshold in bytes.
	K int
}

// NewSingleThresholdPackets creates the DCTCP marker with a threshold of
// kPackets packets of size pktBytes, matching the paper's "K packets"
// parameterization.
func NewSingleThresholdPackets(kPackets, pktBytes int) *SingleThreshold {
	return &SingleThreshold{K: kPackets * pktBytes}
}

// Name implements Policy.
func (*SingleThreshold) Name() string { return "dctcp-single" }

// OnArrival implements Policy.
//
//dtlint:hotpath
func (p *SingleThreshold) OnArrival(_ sim.Time, qlenBytes, _ int) Verdict {
	assertOccupancy(qlenBytes)
	if qlenBytes >= p.K {
		return AcceptMark
	}
	return Accept
}

// OnDeparture implements Policy.
//
//dtlint:hotpath
func (*SingleThreshold) OnDeparture(sim.Time, int) {}

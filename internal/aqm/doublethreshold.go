package aqm

import (
	"dtdctcp/internal/invariant"
	"dtdctcp/internal/sim"
)

// DoubleThreshold is the paper's DT-DCTCP switch law.
//
// The describing function of Fig. 8 defines the marking interval of one
// queue oscillation period as [φ1, φ2] with φ1 = arcsin(K1/X) on the
// rising edge and φ2 = π − arcsin(K2/X) on the falling edge: marking
// starts when the queue crosses K1 upward and stops when it crosses K2
// downward. The paper instantiates this with both threshold orders, and
// the two orders call for different mechanics at packet granularity:
//
//   - K1 > K2 (the paper's testbed: 34 KB / 28 KB) is a classic
//     hysteresis relay. A two-state machine implements it exactly: turn
//     ON when occupancy reaches K1, turn OFF when it falls to K2. The
//     K1−K2 band absorbs per-packet jitter, so no smoothing is needed.
//
//   - K1 < K2 (the paper's simulations: 30 / 50 packets) marks early on
//     the rise and releases early — while the queue is still high — on
//     the fall. Equivalently the threshold is direction-dependent: K1
//     while the queue rises, K2 while it falls. The instantaneous queue
//     is a sawtooth at packet granularity, so the direction is estimated
//     against an exponentially weighted moving average of the occupancy
//     (the smoothing idea RED uses): "rising" means the occupancy exceeds
//     its EWMA, weighted by trendGain.
type DoubleThreshold struct {
	// K1 is the mark-on (rising-edge) threshold in bytes.
	K1 int
	// K2 is the mark-off (falling-edge) threshold in bytes.
	K2 int

	// Hysteresis mode (K1 > K2).
	marking bool

	// Trend mode (K1 < K2).
	avg        float64
	seeded     bool
	lastRising bool
}

// trendGain is the EWMA weight of the queue-trend estimator used when
// K1 < K2.
const trendGain = 1.0 / 16

// NewDoubleThresholdPackets creates the DT-DCTCP marker with thresholds of
// k1Packets/k2Packets packets of size pktBytes, matching the paper's
// packet-based simulation parameters.
func NewDoubleThresholdPackets(k1Packets, k2Packets, pktBytes int) *DoubleThreshold {
	return &DoubleThreshold{K1: k1Packets * pktBytes, K2: k2Packets * pktBytes}
}

// Name implements Policy.
func (*DoubleThreshold) Name() string { return "dt-dctcp" }

// OnArrival implements Policy.
//
//dtlint:hotpath
func (p *DoubleThreshold) OnArrival(_ sim.Time, qlenBytes, _ int) Verdict {
	assertOccupancy(qlenBytes)
	if invariant.Enabled {
		//dtlint:allow hotalloc: assertion boxing is build-tag gated; alloc tests skip under -tags invariants
		invariant.Assert(p.K1 >= 0 && p.K2 >= 0, "aqm: negative double-threshold K1=%d K2=%d", p.K1, p.K2)
	}
	if p.K1 > p.K2 {
		// Hysteresis relay.
		if p.marking {
			if qlenBytes <= p.K2 {
				p.marking = false
			}
		} else if qlenBytes >= p.K1 {
			p.marking = true
		}
		if p.marking {
			return AcceptMark
		}
		return Accept
	}
	// Direction-dependent threshold.
	rising := p.observe(qlenBytes)
	thr := p.K2
	if rising {
		thr = p.K1
	}
	if qlenBytes >= thr {
		return AcceptMark
	}
	return Accept
}

// OnDeparture implements Policy: departures update the relay state resp.
// the trend estimator so a draining queue is tracked between arrivals.
//
//dtlint:hotpath
func (p *DoubleThreshold) OnDeparture(_ sim.Time, qlenBytes int) {
	assertOccupancy(qlenBytes)
	if p.K1 > p.K2 {
		if p.marking && qlenBytes <= p.K2 {
			p.marking = false
		}
		return
	}
	p.observe(qlenBytes)
}

//dtlint:hotpath
func (p *DoubleThreshold) observe(qlen int) bool {
	q := float64(qlen)
	if !p.seeded {
		p.seeded = true
		p.avg = q
	}
	rising := q > p.avg
	p.avg += trendGain * (q - p.avg)
	p.lastRising = rising
	return rising
}

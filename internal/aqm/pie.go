package aqm

import (
	"math/rand"
	"time"

	"dtdctcp/internal/sim"
)

// PIE is the Proportional Integral controller Enhanced AQM (RFC 8033,
// simplified), contemporaneous with the paper and included as an
// additional latency-targeting baseline: instead of thresholding the
// queue *length*, PIE steers the queueing *delay* toward a target by
// adapting a drop/mark probability with a PI controller.
//
// The queueing delay is estimated as occupancy divided by the configured
// drain rate (the attached link speed), which is RFC 8033's basic
// estimator for fixed-rate links.
type PIE struct {
	// Target is the queueing-delay setpoint (RFC default 15 ms; data
	// center deployments use sub-millisecond targets).
	Target time.Duration
	// TUpdate is the probability-update interval (RFC default 15 ms).
	TUpdate time.Duration
	// DrainRateBps is the port's drain rate in bytes/second, used by
	// the delay estimator. Required.
	DrainRateBps float64
	// ECN marks instead of dropping while the probability is at most
	// pieECNCap.
	ECN bool
	// Rand supplies randomness; required for deterministic runs.
	Rand *rand.Rand

	prob       float64
	qdelayOld  time.Duration
	nextUpdate sim.Time
	started    bool
}

// pieECNCap caps ECN marking (the RFC's suggested 0.1): above it PIE
// drops even in ECN mode.
const pieECNCap = 0.1

// Name implements Policy.
func (p *PIE) Name() string {
	if p.ECN {
		return "pie-ecn"
	}
	return "pie"
}

// OnArrival implements Policy.
func (p *PIE) OnArrival(now sim.Time, qlenBytes, _ int) Verdict {
	assertOccupancy(qlenBytes)
	p.maybeUpdate(now, qlenBytes)

	qdelay := p.delay(qlenBytes)
	// Burst protection: do not drop while the queue is comfortably
	// below target and the controller is calm.
	if qdelay < p.target()/2 && p.prob < 0.2 {
		return Accept
	}
	if p.Rand != nil && p.Rand.Float64() < p.prob {
		if p.ECN && p.prob <= pieECNCap {
			return AcceptMark
		}
		return Drop
	}
	return Accept
}

// OnDeparture implements Policy.
func (p *PIE) OnDeparture(now sim.Time, qlenBytes int) {
	p.maybeUpdate(now, qlenBytes)
}

// MarkSubstitutesDrop implements LossSubstituting: in ECN mode the mark
// replaces the drop the law would otherwise apply.
func (p *PIE) MarkSubstitutesDrop() bool { return true }

func (p *PIE) maybeUpdate(now sim.Time, qlenBytes int) {
	if !p.started {
		p.started = true
		p.nextUpdate = now.Add(p.tUpdate())
		return
	}
	if now < p.nextUpdate {
		return
	}
	p.nextUpdate = now.Add(p.tUpdate())

	qdelay := p.delay(qlenBytes)
	// The RFC's PI gains (0.125, 1.25 per second of delay error) are
	// tuned for the 15 ms default target; at data-center targets the
	// loop would converge orders of magnitude too slowly. Scale them to
	// the configured timescale so the controller closes the loop within
	// a few update intervals regardless of target.
	scale := (15 * time.Millisecond).Seconds() / p.target().Seconds()
	alpha, beta := 0.125*scale, 1.25*scale
	delta := alpha*(qdelay-p.target()).Seconds() + beta*(qdelay-p.qdelayOld).Seconds()

	// RFC 8033 auto-tuning: scale the adjustment down while the
	// probability is small so the controller is gentle near zero.
	switch {
	case p.prob < 0.000001:
		delta /= 2048
	case p.prob < 0.00001:
		delta /= 512
	case p.prob < 0.0001:
		delta /= 128
	case p.prob < 0.001:
		delta /= 32
	case p.prob < 0.01:
		delta /= 8
	case p.prob < 0.1:
		delta /= 2
	}
	p.prob += delta

	// Exponential decay when the queue is empty (RFC §4.2).
	if qdelay == 0 && p.qdelayOld == 0 {
		p.prob *= 0.98
	}
	if p.prob < 0 {
		p.prob = 0
	} else if p.prob > 1 {
		p.prob = 1
	}
	p.qdelayOld = qdelay
}

func (p *PIE) delay(qlenBytes int) time.Duration {
	if p.DrainRateBps <= 0 {
		return 0
	}
	return time.Duration(float64(qlenBytes) / p.DrainRateBps * float64(time.Second))
}

func (p *PIE) target() time.Duration {
	if p.Target <= 0 {
		return 15 * time.Millisecond
	}
	return p.Target
}

func (p *PIE) tUpdate() time.Duration {
	if p.TUpdate <= 0 {
		return 15 * time.Millisecond
	}
	return p.TUpdate
}

var _ Policy = (*PIE)(nil)

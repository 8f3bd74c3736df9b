// HULL-style phantom queue (Alizadeh et al., NSDI'12): marking decisions
// come from a simulated *virtual* queue that drains at a configurable
// fraction γ of the line rate, not from the real buffer occupancy. By
// marking as if the link were slower, the real queue is held near empty
// and latency stays at the propagation floor — the price is the (1−γ)
// slice of bandwidth the phantom queue refuses to fill.
package aqm

import (
	"fmt"

	"dtdctcp/internal/invariant"
	"dtdctcp/internal/sim"
)

// PhantomQueue wraps an inner threshold policy and feeds it virtual-queue
// occupancy instead of the port's real queue length. The virtual queue
// grows by every arriving packet's size and drains continuously at
// DrainBytesPerSec = γ·C. With γ = 1 and a SingleThreshold inner policy
// it reproduces a rate-C fluid queue marked at K; with γ < 1 the virtual
// queue saturates while the real queue is still short, so marking starts
// earlier and steady-state utilization pins at γ.
type PhantomQueue struct {
	// DrainBytesPerSec is the virtual drain rate γ·C in bytes/second.
	DrainBytesPerSec float64
	// Inner is the threshold law consulted against the virtual
	// occupancy. It must be a pure occupancy law (SingleThreshold,
	// DoubleThreshold); dequeue-time laws are not meaningful here.
	Inner Policy

	vq      float64  // virtual occupancy in bytes
	lastAt  sim.Time // instant of the last drain update
	started bool
}

// NewPhantomQueue builds a phantom queue draining at drainBytesPerSec
// that marks via inner.
func NewPhantomQueue(drainBytesPerSec float64, inner Policy) *PhantomQueue {
	if drainBytesPerSec <= 0 {
		panic("aqm: phantom queue needs a positive drain rate")
	}
	if inner == nil {
		panic("aqm: phantom queue needs an inner policy")
	}
	return &PhantomQueue{DrainBytesPerSec: drainBytesPerSec, Inner: inner}
}

// Name identifies the policy in experiment output.
func (p *PhantomQueue) Name() string {
	return fmt.Sprintf("phantom(%s)", p.Inner.Name())
}

// drain advances the virtual queue to now.
//
//dtlint:hotpath
func (p *PhantomQueue) drain(now sim.Time) {
	if !p.started {
		p.lastAt = now
		p.started = true
		return
	}
	dt := (now - p.lastAt).Duration().Seconds()
	p.lastAt = now
	if dt <= 0 {
		return
	}
	p.vq -= p.DrainBytesPerSec * dt
	if p.vq < 0 {
		p.vq = 0
	}
}

// OnArrival drains the virtual queue to now, consults the inner law
// against the virtual occupancy, then adds the packet to the virtual
// queue. The real occupancy is ignored: HULL marks on what the queue
// *would* be at the slower virtual rate.
//
//dtlint:hotpath
func (p *PhantomQueue) OnArrival(now sim.Time, qlenBytes, pktBytes int) Verdict {
	assertOccupancy(qlenBytes)
	p.drain(now)
	v := p.Inner.OnArrival(now, int(p.vq), pktBytes)
	p.vq += float64(pktBytes)
	p.assertOccupancy()
	if v == Drop {
		// The phantom queue is a marking device; only the real buffer
		// drops. Inner laws here are threshold markers, which never
		// return Drop, but clamp defensively.
		v = AcceptMark
	}
	return v
}

// OnDeparture only advances the virtual drain: real departures do not
// shrink the virtual queue, which is the point of the device.
//
//dtlint:hotpath
func (p *PhantomQueue) OnDeparture(now sim.Time, qlenBytes int) {
	p.drain(now)
	p.Inner.OnDeparture(now, int(p.vq))
}

// assertOccupancy checks, under -tags invariants, that the virtual
// queue never goes negative. The format arguments only exist in
// invariants builds, keeping the hot path allocation-free.
func (p *PhantomQueue) assertOccupancy() {
	if invariant.Enabled {
		invariant.Assert(p.vq >= 0, "aqm: negative phantom occupancy %g", p.vq)
	}
}

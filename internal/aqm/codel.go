package aqm

import (
	"math"
	"time"

	"dtdctcp/internal/sim"
)

// CoDel is the Controlled Delay AQM (Nichols/Jacobson, RFC 8289),
// contemporaneous with the paper and included as a second delay-targeting
// baseline. Unlike every other law in this package it acts at dequeue
// time on the measured per-packet sojourn: once the sojourn has stayed
// above Target for a full Interval, CoDel enters the dropping state and
// drops (or, in ECN mode, marks) at instants spaced by
// Interval/√count.
type CoDel struct {
	// Target is the acceptable standing sojourn time (RFC default 5 ms;
	// data centers scale it to ~RTT/10).
	Target time.Duration
	// Interval is the sliding measurement window (RFC default 100 ms;
	// should cover an RTT mix).
	Interval time.Duration
	// ECN marks instead of dropping.
	ECN bool

	firstAboveTime sim.Time
	dropNext       sim.Time
	count          int
	lastCount      int
	dropping       bool
}

// Name implements Policy.
func (c *CoDel) Name() string {
	if c.ECN {
		return "codel-ecn"
	}
	return "codel"
}

// OnArrival implements Policy: CoDel admits everything (the buffer limit
// still applies) and acts at dequeue.
func (c *CoDel) OnArrival(sim.Time, int, int) Verdict { return Accept }

// OnDeparture implements Policy.
func (c *CoDel) OnDeparture(sim.Time, int) {}

// MarkSubstitutesDrop implements LossSubstituting: in ECN mode the mark
// replaces the drop the control law scheduled.
func (c *CoDel) MarkSubstitutesDrop() bool { return true }

// OnDequeue implements DequeuePolicy: the RFC 8289 control law.
func (c *CoDel) OnDequeue(now sim.Time, sojourn time.Duration, qlenBytes int) Verdict {
	okToDrop := c.shouldDrop(now, sojourn, qlenBytes)
	if c.dropping {
		if !okToDrop {
			c.dropping = false
			return Accept
		}
		if now >= c.dropNext {
			c.count++
			c.dropNext = c.dropNext.Add(c.controlInterval())
			return c.congested()
		}
		return Accept
	}
	if okToDrop && (now-c.dropNext < sim.FromDuration(c.interval()) || now-c.firstAboveTime >= sim.FromDuration(c.interval())) {
		c.dropping = true
		// RFC §5.4: restart from a higher rate if we were dropping
		// recently, else from 1.
		if now-c.dropNext < sim.FromDuration(c.interval()) && c.lastCount > 2 {
			c.count = c.lastCount - 2
		} else {
			c.count = 1
		}
		c.lastCount = c.count
		c.dropNext = now.Add(c.controlInterval())
		return c.congested()
	}
	return Accept
}

// shouldDrop tracks how long the sojourn has continuously exceeded Target.
func (c *CoDel) shouldDrop(now sim.Time, sojourn time.Duration, qlenBytes int) bool {
	// A near-empty queue never drops (RFC: at least one MTU must remain).
	if sojourn < c.target() || qlenBytes < 1500 {
		c.firstAboveTime = 0
		return false
	}
	if c.firstAboveTime == 0 {
		c.firstAboveTime = now.Add(c.interval())
		return false
	}
	return now >= c.firstAboveTime
}

func (c *CoDel) congested() Verdict {
	c.lastCount = c.count
	if c.ECN {
		return AcceptMark
	}
	return Drop
}

// controlInterval returns Interval/√count, the RFC's drop-spacing law.
func (c *CoDel) controlInterval() time.Duration {
	if c.count <= 0 {
		return c.interval()
	}
	return time.Duration(float64(c.interval()) / math.Sqrt(float64(c.count)))
}

func (c *CoDel) target() time.Duration {
	if c.Target <= 0 {
		return 5 * time.Millisecond
	}
	return c.Target
}

func (c *CoDel) interval() time.Duration {
	if c.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return c.Interval
}

var _ DequeuePolicy = (*CoDel)(nil)

package netsim

// Ambient load: the hybrid co-simulation's hook into a port. A fluid
// model of thousands of background flows produces, at each coupling
// tick, (a) a queue occupancy those flows contribute at this port and
// (b) the link bandwidth they consume. SetAmbient installs both, and the
// port then behaves as if that traffic were really queued here:
//
//   - the AQM policy sees the total occupancy (real + ambient) at every
//     arrival, dequeue, and departure, so marking/drop decisions for
//     packet-level flows respond to the ambient queue level;
//   - buffer overflow is judged against the total, so ambient backlog
//     squeezes the room left for packets exactly as real competitors
//     would;
//   - the queue monitor observes the total, so recorded queue statistics
//     are directly comparable with a fully packet-level run;
//   - packets serialize at the link rate scaled by the real share of the
//     total backlog — processor sharing over queue composition, the
//     classic fluid/packet approximation of FIFO: a packet behind k
//     ambient packets takes ≈(k+1) serialization times to depart, just
//     as if it had waited its FIFO turn, and the share is derived from
//     backlog alone so a temporarily slow packet class can always win
//     service back (a residual-rate model deadlocks here).
//
// Everything stays neutral until SetAmbient is first called: the zero
// ambient state reproduces the unmodified port exactly.

// SetAmbient sets the ambient queue contribution in bytes and the link
// bandwidth consumed by ambient traffic. The bytes bias the AQM, the
// overflow check, the monitor, and the serialization share; the consumed
// rate is recorded for observability only. Negative bytes clamp to zero;
// the consumed rate is clamped to [0, 99.9% of the link]. If the total
// occupancy changed, the queue monitor is notified at the current
// instant, keeping time-weighted queue statistics honest across coupling
// ticks.
func (p *Port) SetAmbient(bytes int, consumed Rate) {
	if bytes < 0 {
		bytes = 0
	}
	if consumed < 0 {
		consumed = 0
	}
	if max := p.rate - p.rate/1000; consumed > max {
		consumed = max
	}
	changed := bytes != p.ambientBytes
	p.ambientBytes = bytes
	p.ambientRate = consumed
	if changed {
		p.notifyMonitor(p.net.engine.Now())
	}
}

// AmbientBytes returns the ambient queue contribution in bytes.
func (p *Port) AmbientBytes() int { return p.ambientBytes }

// AmbientRate returns the link bandwidth consumed by ambient traffic.
func (p *Port) AmbientRate() Rate { return p.ambientRate }

// serializationRate is the rate the next pktSize-byte transmission is
// serialized at: the link rate scaled by the real backlog's share of the
// total (real + ambient) — processor sharing over queue composition,
// which reproduces FIFO delay through the ambient queue. With no ambient
// load it is exactly the link rate.
//
//dtlint:hotpath
func (p *Port) serializationRate(pktSize int) Rate {
	if p.ambientBytes == 0 {
		return p.rate
	}
	real := p.queueLen + pktSize
	r := Rate(float64(p.rate) * float64(real) / float64(real+p.ambientBytes))
	if r < 1 {
		r = 1
	}
	return r
}

// totalQueueLen is the occupancy the AQM policy, the overflow check, and
// the queue monitor observe: real queued bytes plus the ambient
// contribution.
//
//dtlint:hotpath
func (p *Port) totalQueueLen() int { return p.queueLen + p.ambientBytes }

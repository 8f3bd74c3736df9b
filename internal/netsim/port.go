package netsim

import (
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/invariant"
	"dtdctcp/internal/sim"
)

// QueueMonitor observes every occupancy change of one port's queue. The
// experiment runners attach monitors to the bottleneck port to collect the
// queue-length statistics of Figs. 1, 10 and 11.
type QueueMonitor interface {
	// QueueChanged is invoked after each enqueue or dequeue with the new
	// occupancy in bytes.
	QueueChanged(now sim.Time, qlenBytes int)
}

// PortTracer observes per-packet events at one port, for structured
// tracing. All hooks run synchronously on the simulation goroutine; keep
// them cheap, and copy out any packet fields needed later — pooled
// packets are recycled after the hook returns.
type PortTracer interface {
	// PacketEnqueued fires after a packet is accepted into the queue;
	// marked reports whether this port set CE on it.
	PacketEnqueued(now sim.Time, pkt *Packet, qlenBytes int, marked bool)
	// PacketDequeued fires when a packet enters transmission.
	PacketDequeued(now sim.Time, pkt *Packet, qlenBytes int)
	// PacketDropped fires for discarded packets; overflow distinguishes
	// buffer exhaustion from an AQM drop decision.
	PacketDropped(now sim.Time, pkt *Packet, qlenBytes int, overflow bool)
}

// PortStats counts per-port events.
type PortStats struct {
	// Enqueued and Dequeued count packets accepted into and transmitted
	// out of the queue.
	Enqueued, Dequeued uint64
	// Marked counts packets that left with the CE codepoint set by this
	// port.
	Marked uint64
	// DroppedOverflow counts packets dropped for lack of buffer.
	DroppedOverflow uint64
	// DroppedPolicy counts packets dropped by the AQM policy (PIE above
	// its ECN cap, CoDel).
	DroppedPolicy uint64
	// BytesSent is the total on-wire bytes transmitted.
	BytesSent uint64
}

// Port is one output interface: a finite FIFO byte buffer drained at the
// link rate, with an AQM policy consulted at every arrival, followed by a
// fixed propagation delay to the peer node.
type Port struct {
	engine *sim.Engine
	net    *Network

	// rate and delay describe the attached link.
	rate  Rate
	delay time.Duration
	// buffer is the queue capacity in bytes (the packet in transmission
	// no longer counts against it, matching output-queued switches).
	buffer int
	policy aqm.Policy
	// dequeue is policy's dequeue-time side (CoDel), resolved once at
	// construction; nil for a law that decides at arrival only.
	dequeue aqm.DequeuePolicy
	peer    Node

	queue    pktRing
	queueLen int // bytes
	// shared, when non-nil, replaces the static buffer bound with a
	// switch-wide dynamic-threshold pool (see SharedBuffer).
	shared  *SharedBuffer
	busy    bool
	stats   PortStats
	monitor QueueMonitor
	tracer  PortTracer

	// ambientBytes and ambientRate model co-simulated background traffic
	// sharing this port (see SetAmbient in ambient.go): a foreign queue
	// contribution biasing every occupancy the AQM and monitor see, and
	// the bandwidth that traffic consumes.
	ambientBytes int
	ambientRate  Rate

	// txDoneFn and deliverFn are the transmit chain's event callbacks,
	// built once at construction. Scheduling them through ScheduleArg
	// with the packet as the argument keeps the per-packet event path
	// free of closure allocations.
	txDoneFn  func(any)
	deliverFn func(any)

	// srcKey is the stable domain index the port ships under (see ship);
	// ComputeRoutes assigns it. srcKey < 0 means unassigned (a topology
	// that never computed routes), which falls back to unkeyed scheduling.
	srcKey int
}

// PortConfig bundles the parameters of one directed link attachment.
type PortConfig struct {
	// Rate is the link speed.
	Rate Rate
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Buffer is the queue capacity in bytes.
	Buffer int
	// Policy is the queue law; nil means DropTail.
	Policy aqm.Policy
}

func newPort(net *Network, cfg PortConfig, peer Node) *Port {
	policy := cfg.Policy
	if policy == nil {
		policy = aqm.NewDropTail()
	}
	p := &Port{
		engine: net.engine,
		net:    net,
		rate:   cfg.Rate,
		delay:  cfg.Delay,
		buffer: cfg.Buffer,
		policy: policy,
		peer:   peer,
		srcKey: -1,
	}
	p.dequeue, _ = policy.(aqm.DequeuePolicy)
	//dtlint:hotpath
	p.deliverFn = func(arg any) { p.peer.Receive(arg.(*Packet)) }
	//dtlint:hotpath
	p.txDoneFn = func(arg any) {
		p.ship(arg.(*Packet))
		p.transmitNext()
	}
	return p
}

// ship launches a serialized packet onto the wire: arrival at the peer
// after the propagation delay, one self-owned event. The delivery is
// stamped with the port's stable srcKey, so a same-instant arrival tie at
// the peer between two ports' deliveries is decided by the
// topology-derived key, not by which of the two happened to schedule
// first.
//
//dtlint:hotpath
func (p *Port) ship(pkt *Packet) {
	if p.srcKey < 0 {
		// Routes never computed: no stable identity to ship under.
		p.engine.AfterArg(p.delay, p.deliverFn, pkt)
		return
	}
	p.engine.ScheduleSrcArg(p.engine.Now().Add(p.delay), p.srcKey, p.deliverFn, pkt)
}

// SetMonitor attaches a queue monitor; pass nil to detach.
func (p *Port) SetMonitor(m QueueMonitor) { p.monitor = m }

// SetTracer attaches a per-packet tracer; pass nil to detach.
func (p *Port) SetTracer(t PortTracer) { p.tracer = t }

// Stats returns a copy of the port's counters.
func (p *Port) Stats() PortStats { return p.stats }

// QueueLen returns the instantaneous queue occupancy in bytes.
func (p *Port) QueueLen() int { return p.queueLen }

// Policy returns the attached AQM policy.
func (p *Port) Policy() aqm.Policy { return p.policy }

// Rate returns the link speed.
func (p *Port) Rate() Rate { return p.rate }

// Delay returns the one-way propagation delay.
func (p *Port) Delay() time.Duration { return p.delay }

// Buffer returns the queue capacity in bytes. For a pooled port this is
// the configured static size, which admission no longer consults.
func (p *Port) Buffer() int { return p.buffer }

// addQueued moves the port's byte counter by delta, mirroring the change
// into the shared pool's occupancy when the port is pooled. Every
// enqueue/dequeue path funnels through here so the two counters cannot
// drift.
//
//dtlint:hotpath
func (p *Port) addQueued(delta int) {
	p.queueLen += delta
	if p.shared != nil {
		p.shared.used += delta
	}
}

// Peer returns the node at the far end of the link.
func (p *Port) Peer() Node { return p.peer }

// drop discards a packet: count, trace, recycle.
//
//dtlint:hotpath
func (p *Port) drop(pkt *Packet, overflow bool) {
	if overflow {
		p.stats.DroppedOverflow++
	} else {
		p.stats.DroppedPolicy++
	}
	if p.tracer != nil {
		p.tracer.PacketDropped(p.engine.Now(), pkt, p.queueLen, overflow)
	}
	p.net.pool.put(pkt)
}

// Send offers a packet to the port. The AQM policy is consulted with the
// occupancy at arrival; buffer overflow always drops. A dropped packet is
// recycled here — the caller must not touch it after Send returns.
//
//dtlint:hotpath
func (p *Port) Send(pkt *Packet) {
	verdict := p.policy.OnArrival(p.engine.Now(), p.totalQueueLen(), pkt.Size)
	if verdict == aqm.Drop {
		p.drop(pkt, false)
		return
	}
	overflow := p.totalQueueLen()+pkt.Size > p.buffer
	if p.shared != nil {
		// Pooled port: tail-drop against the dynamic allowance
		// T = α·(B − ΣQ) instead of the static per-port bound.
		overflow = !p.shared.admit(p.queueLen, pkt.Size)
	}
	if overflow {
		// The policy saw an arrival that never materialized; inform it
		// of the unchanged occupancy so trend estimators stay honest.
		p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
		p.drop(pkt, true)
		return
	}
	marked := false
	if verdict == aqm.AcceptMark {
		switch {
		case pkt.ECT:
			pkt.CE = true
			marked = true
			p.stats.Marked++
		case markSubstitutesDrop(p.policy):
			// RFC 3168 §5: a law whose mark replaces a drop must
			// drop non-ECT traffic when it signals congestion.
			p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
			p.drop(pkt, false)
			return
		}
	}
	pkt.EnqueuedAt = p.engine.Now()
	p.queue.push(pkt)
	p.addQueued(pkt.Size)
	p.stats.Enqueued++
	p.checkConservation()
	if p.tracer != nil {
		p.tracer.PacketEnqueued(p.engine.Now(), pkt, p.queueLen, marked)
	}
	p.notifyMonitor()
	if !p.busy {
		p.transmitNext()
	}
}

//dtlint:hotpath
func (p *Port) transmitNext() {
	var pkt *Packet
	for {
		if p.queue.len() == 0 {
			p.busy = false
			return
		}
		p.busy = true
		pkt = p.queue.pop()
		p.addQueued(-pkt.Size)
		p.checkConservation()

		// Dequeue-time queue laws (CoDel) may drop or mark here.
		if p.dequeue == nil {
			break
		}
		sojourn := (p.engine.Now() - pkt.EnqueuedAt).Duration()
		verdict := p.dequeue.OnDequeue(p.engine.Now(), sojourn, p.totalQueueLen())
		if verdict == aqm.Drop {
			p.drop(pkt, false)
			p.notifyMonitor()
			continue
		}
		if verdict == aqm.AcceptMark {
			if pkt.ECT {
				if !pkt.CE {
					pkt.CE = true
					p.stats.Marked++
				}
			} else if markSubstitutesDrop(p.policy) {
				p.drop(pkt, false)
				p.notifyMonitor()
				continue
			}
		}
		break
	}
	p.stats.Dequeued++
	p.stats.BytesSent += uint64(pkt.Size)
	p.policy.OnDeparture(p.engine.Now(), p.totalQueueLen())
	if p.tracer != nil {
		p.tracer.PacketDequeued(p.engine.Now(), pkt, p.queueLen)
	}
	p.notifyMonitor()

	p.engine.AfterArg(p.serializationRate(pkt.Size).Serialization(pkt.Size), p.txDoneFn, pkt)
}

// markSubstitutesDrop reports whether the policy's marks stand in for
// drops (RFC 3168 §5 handling of non-ECT packets).
//
//dtlint:hotpath
func markSubstitutesDrop(pol aqm.Policy) bool {
	ls, ok := pol.(aqm.LossSubstituting)
	return ok && ls.MarkSubstitutesDrop()
}

//dtlint:hotpath
func (p *Port) notifyMonitor() {
	if p.monitor != nil {
		p.monitor.QueueChanged(p.engine.Now(), p.totalQueueLen())
	}
}

// checkConservation asserts, under -tags invariants, that the byte counter
// the AQM policies see agrees with the packets actually queued and stays
// inside the physical buffer. The O(len(queue)) walk only exists in
// invariants builds.
func (p *Port) checkConservation() {
	if !invariant.Enabled {
		return
	}
	invariant.Assert(p.queueLen >= 0, "netsim: negative queue occupancy %d on port to %s",
		p.queueLen, p.peer.Name())
	if p.shared == nil {
		invariant.Assert(p.queueLen <= p.buffer, "netsim: occupancy %d exceeds buffer %d on port to %s",
			p.queueLen, p.buffer, p.peer.Name())
	} else {
		p.shared.checkConservation()
	}
	sum := 0
	for i := 0; i < p.queue.len(); i++ {
		sum += p.queue.at(i).Size
	}
	invariant.Assert(sum == p.queueLen, "netsim: byte-count drift: queued packets hold %d bytes, counter says %d",
		sum, p.queueLen)
}

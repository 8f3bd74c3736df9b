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
// fixed propagation delay to the peer node. A topology builds ports in
// bulk, so what few ports carry sits behind ext and the struct fits the
// 192 B size class.
type Port struct {
	net *Network

	// rate and delay describe the attached link.
	rate  Rate
	delay time.Duration
	// buffer is the queue capacity in bytes (the packet in transmission
	// no longer counts against it, matching output-queued switches).
	buffer int
	policy aqm.Policy
	peer   Node

	queue    pktRing
	queueLen int // bytes
	stats    PortStats

	// ext holds the laws and hooks few ports carry; nil when the port
	// has none of them.
	ext *portExt

	// ambientBytes and ambientRate model co-simulated background traffic
	// sharing this port (see SetAmbient in ambient.go): a foreign queue
	// contribution biasing every occupancy the AQM and monitor see, and
	// the bandwidth that traffic consumes.
	ambientBytes int
	ambientRate  Rate

	// srcKey is the stable domain index the port ships under (see ship);
	// ComputeRoutes assigns it. srcKey < 0 means unassigned (a topology
	// that never computed routes), which falls back to unkeyed scheduling.
	srcKey int32
	busy   bool
}

// portExt is the part of a port that few ports need.
type portExt struct {
	// dequeue is policy's dequeue-time side (CoDel), resolved once at
	// construction; nil for a law that decides at arrival only.
	dequeue aqm.DequeuePolicy
	// shared, when non-nil, replaces the static buffer bound with a
	// switch-wide dynamic-threshold pool (see SharedBuffer).
	shared  *SharedBuffer
	monitor QueueMonitor
	tracer  PortTracer
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
		net:    net,
		rate:   cfg.Rate,
		delay:  cfg.Delay,
		buffer: cfg.Buffer,
		policy: policy,
		peer:   peer,
		srcKey: -1,
	}
	if dq, ok := policy.(aqm.DequeuePolicy); ok {
		p.extension().dequeue = dq
	}
	return p
}

// extension returns the port's ext, making it on first use.
func (p *Port) extension() *portExt {
	if p.ext == nil {
		p.ext = &portExt{}
	}
	return p.ext
}

// The transmit chain's event callbacks. Each is scheduled through the
// engine with the packet as its argument and finds its port through the
// packet's via, which transmitNext stamps, so the per-packet event path
// allocates no closure and a port carries none.

// portTxDone ends a packet's serialization: ship it, start the next.
//
//dtlint:hotpath
func portTxDone(arg any) {
	pkt := arg.(*Packet)
	p := pkt.via
	p.ship(pkt)
	p.transmitNext()
}

// portDeliver hands a packet that finished propagation to the port's
// peer.
//
//dtlint:hotpath
func portDeliver(arg any) {
	pkt := arg.(*Packet)
	pkt.via.peer.Receive(pkt)
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
	e := p.net.engine
	if p.srcKey < 0 {
		// Routes never computed: no stable identity to ship under.
		e.AfterArg(p.delay, portDeliver, pkt)
		return
	}
	e.ScheduleSrcArg(e.Now().Add(p.delay), int(p.srcKey), portDeliver, pkt)
}

// SetMonitor attaches a queue monitor; pass nil to detach.
func (p *Port) SetMonitor(m QueueMonitor) {
	if m != nil || p.ext != nil {
		p.extension().monitor = m
	}
}

// SetTracer attaches a per-packet tracer; pass nil to detach.
func (p *Port) SetTracer(t PortTracer) {
	if t != nil || p.ext != nil {
		p.extension().tracer = t
	}
}

// tracer returns the attached per-packet tracer, or nil.
//
//dtlint:hotpath
func (p *Port) tracer() PortTracer {
	if p.ext == nil {
		return nil
	}
	return p.ext.tracer
}

// shared returns the port's shared buffer pool, or nil.
//
//dtlint:hotpath
func (p *Port) shared() *SharedBuffer {
	if p.ext == nil {
		return nil
	}
	return p.ext.shared
}

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
	if sb := p.shared(); sb != nil {
		sb.used += delta
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
	if tr := p.tracer(); tr != nil {
		tr.PacketDropped(p.net.engine.Now(), pkt, p.queueLen, overflow)
	}
	p.net.pool.put(pkt)
}

// Send offers a packet to the port. The AQM policy is consulted with the
// occupancy at arrival; buffer overflow always drops. A dropped packet is
// recycled here — the caller must not touch it after Send returns.
//
//dtlint:hotpath
func (p *Port) Send(pkt *Packet) {
	now := p.net.engine.Now()
	size := int(pkt.Size)
	verdict := p.policy.OnArrival(now, p.totalQueueLen(), size)
	if verdict == aqm.Drop {
		p.drop(pkt, false)
		return
	}
	overflow := p.totalQueueLen()+size > p.buffer
	if sb := p.shared(); sb != nil {
		// Pooled port: tail-drop against the dynamic allowance
		// T = α·(B − ΣQ) instead of the static per-port bound.
		overflow = !sb.admit(p.queueLen, size)
	}
	if overflow {
		// The policy saw an arrival that never materialized; inform it
		// of the unchanged occupancy so trend estimators stay honest.
		p.policy.OnDeparture(now, p.totalQueueLen())
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
			p.policy.OnDeparture(now, p.totalQueueLen())
			p.drop(pkt, false)
			return
		}
	}
	pkt.EnqueuedAt = now
	p.queue.push(pkt)
	p.addQueued(size)
	p.stats.Enqueued++
	p.checkConservation()
	if tr := p.tracer(); tr != nil {
		tr.PacketEnqueued(now, pkt, p.queueLen, marked)
	}
	p.notifyMonitor(now)
	if !p.busy {
		p.transmitNext()
	}
}

// transmitNext starts serializing the head of the queue, if any: the
// packet carries the port as its via to the transmit chain's handlers.
//
//dtlint:hotpath
func (p *Port) transmitNext() {
	e := p.net.engine
	var pkt *Packet
	for {
		if p.queue.len() == 0 {
			p.busy = false
			return
		}
		p.busy = true
		pkt = p.queue.pop()
		p.addQueued(-int(pkt.Size))
		p.checkConservation()

		// Dequeue-time queue laws (CoDel) may drop or mark here.
		if p.ext == nil || p.ext.dequeue == nil {
			break
		}
		sojourn := (e.Now() - pkt.EnqueuedAt).Duration()
		verdict := p.ext.dequeue.OnDequeue(e.Now(), sojourn, p.totalQueueLen())
		if verdict == aqm.Drop {
			p.drop(pkt, false)
			p.notifyMonitor(e.Now())
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
				p.notifyMonitor(e.Now())
				continue
			}
		}
		break
	}
	p.stats.Dequeued++
	p.stats.BytesSent += uint64(pkt.Size)
	p.policy.OnDeparture(e.Now(), p.totalQueueLen())
	if tr := p.tracer(); tr != nil {
		tr.PacketDequeued(e.Now(), pkt, p.queueLen)
	}
	p.notifyMonitor(e.Now())

	pkt.via = p
	size := int(pkt.Size)
	e.AfterArg(p.serializationRate(size).Serialization(size), portTxDone, pkt)
}

// markSubstitutesDrop reports whether the policy's marks stand in for
// drops (RFC 3168 §5 handling of non-ECT packets).
//
//dtlint:hotpath
func markSubstitutesDrop(pol aqm.Policy) bool {
	ls, ok := pol.(aqm.LossSubstituting)
	return ok && ls.MarkSubstitutesDrop()
}

// notifyMonitor reports the occupancy to the monitor, if any; now is the
// engine's clock, which the callers have at hand. The call sits in
// portExt.notify so that the check inlines into the forward path.
//
//dtlint:hotpath
func (p *Port) notifyMonitor(now sim.Time) {
	if p.ext != nil && p.ext.monitor != nil {
		p.ext.notify(now, p.totalQueueLen())
	}
}

//go:noinline
//dtlint:hotpath
func (x *portExt) notify(now sim.Time, qlen int) { x.monitor.QueueChanged(now, qlen) }

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
	if sb := p.shared(); sb == nil {
		invariant.Assert(p.queueLen <= p.buffer, "netsim: occupancy %d exceeds buffer %d on port to %s",
			p.queueLen, p.buffer, p.peer.Name())
	} else {
		sb.checkConservation()
	}
	sum := 0
	for i := 0; i < p.queue.len(); i++ {
		sum += int(p.queue.at(i).Size)
	}
	invariant.Assert(sum == p.queueLen, "netsim: byte-count drift: queued packets hold %d bytes, counter says %d",
		sum, p.queueLen)
}

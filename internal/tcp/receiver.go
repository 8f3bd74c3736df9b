package tcp

import (
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// Receiver is the data sink of one flow. It reassembles in-order delivery,
// generates (optionally delayed) cumulative ACKs, and echoes congestion
// marks back to the sender:
//
//   - DCTCP variant: the ACK's ECE mirrors the CE state of the data stream
//     exactly, using the delayed-ACK state machine from the DCTCP paper —
//     when the CE state changes, the pending ACK is flushed immediately so
//     the sender's marked-byte accounting stays accurate;
//   - RenoECN variant: ECE latches on a CE mark and stays set until the
//     sender confirms a window reduction with CWR (RFC 3168);
//   - Reno: marks are ignored.
type Receiver struct {
	engine *sim.Engine
	host   *netsim.Host
	flow   netsim.FlowID
	peer   netsim.NodeID
	cfg    Config

	rcvNxt int64
	// ooo holds out-of-order segments: start → end byte offsets.
	ooo map[int64]int64

	// Delayed-ACK state.
	pendingPkts  int // data packets not yet acknowledged
	pendingBytes int // payload bytes covered by the pending ACK
	lastDataSent sim.Time
	ackTimer     *sim.Timer

	// ECN echo state.
	ceState    bool // DCTCP: CE value of the current run of packets
	eceLatched bool // RenoECN: latched until CWR

	stats ReceiverStats
}

// ReceiverStats counts receiver-side events.
type ReceiverStats struct {
	// Segments counts data packets received (including duplicates).
	Segments uint64
	// DupSegments counts segments at or below the cumulative ACK point.
	DupSegments uint64
	// OutOfOrder counts segments buffered beyond the ACK point.
	OutOfOrder uint64
	// AcksSent counts acknowledgements emitted.
	AcksSent uint64
	// CEMarked counts received data packets carrying CE.
	CEMarked uint64
}

// NewReceiver creates a receiver for flow on host, acknowledging to peer.
// It registers itself as the host's endpoint for the flow.
func NewReceiver(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, cfg Config) *Receiver {
	r := &Receiver{}
	r.open(host, flow, peer, cfg)
	return r
}

// Reopen is Sender.Reopen for a retired receiver: it refuses while the
// delayed-ACK timer is armed or when host schedules on another engine.
//
//dtlint:hotpath
func (r *Receiver) Reopen(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, cfg Config) bool {
	if r.engine != hostEngine(host) || r.ackTimer.Armed() {
		return false
	}
	r.open(host, flow, peer, cfg)
	return true
}

// open is the one definition of a fresh connection's receiver state (see
// Sender.open); the delayed-ACK timer and the emptied out-of-order map
// survive it.
//
//dtlint:hotpath
func (r *Receiver) open(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, cfg Config) {
	ooo, ack := r.ooo, r.ackTimer
	*r = Receiver{
		engine:   hostEngine(host),
		host:     host,
		flow:     flow,
		peer:     peer,
		cfg:      cfg.sanitize(),
		ooo:      ooo,
		ackTimer: ack,
	}
	if ooo == nil {
		//dtlint:allow hotalloc: the allocate branch — NewReceiver's zeroed storage
		r.ooo = make(map[int64]int64)
		r.ackTimer = sim.NewTimer(r.engine, r.flushAck)
	}
	clear(r.ooo)
	host.Register(flow, r)
}

// Stats returns a copy of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Received returns the number of contiguous bytes delivered so far.
func (r *Receiver) Received() int64 { return r.rcvNxt }

// Deliver implements netsim.Endpoint for inbound data packets.
//
//dtlint:hotpath
func (r *Receiver) Deliver(pkt *netsim.Packet) {
	if pkt.IsAck {
		return // receivers ignore stray ACKs
	}
	r.stats.Segments++
	if pkt.CE {
		r.stats.CEMarked++
	}

	// ECN echo state machines.
	switch {
	case r.cfg.Variant.dctcpLike():
		if pkt.CE != r.ceState {
			// CE state change: flush the pending ACK with the old
			// state so every ACK reports a uniform CE run.
			if r.pendingPkts > 0 {
				r.flushAck()
			}
			r.ceState = pkt.CE
		}
	case r.cfg.Variant == RenoECN:
		if pkt.CE {
			r.eceLatched = true
		}
		if pkt.CWR {
			r.eceLatched = false
		}
	}

	end := pkt.Seq + int64(pkt.PayloadLen)
	switch {
	case end <= r.rcvNxt:
		// Fully duplicate segment: re-ACK immediately so the sender's
		// dup-ACK machinery sees it.
		r.stats.DupSegments++
		r.pendingPkts++
		r.flushAck()
		return
	case pkt.Seq > r.rcvNxt:
		// Out of order: buffer and send an immediate dup ACK.
		r.stats.OutOfOrder++
		if old, ok := r.ooo[pkt.Seq]; !ok || end > old {
			r.ooo[pkt.Seq] = end
		}
		r.pendingPkts++
		r.flushAck()
		return
	}

	// In-order (possibly overlapping) segment: advance and drain the
	// out-of-order buffer to a fixpoint. Each outer iteration either
	// consumes an exact continuation or re-anchors/discards straddling
	// and obsolete ranges, so the loop terminates (the buffer shrinks).
	r.rcvNxt = end
	for {
		if e, ok := r.ooo[r.rcvNxt]; ok {
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt = e
			continue
		}
		// Discard obsolete ranges; re-anchor ranges that straddle
		// rcvNxt, taking the max end so two straddling ranges cannot
		// shrink each other (map iteration order is unspecified).
		changed := false
		//dtlint:allow maporder: every path keeps the max end per key, so the fixpoint is order-insensitive
		for s, e := range r.ooo {
			if e <= r.rcvNxt {
				delete(r.ooo, s)
			} else if s < r.rcvNxt {
				delete(r.ooo, s)
				if old, ok := r.ooo[r.rcvNxt]; !ok || e > old {
					r.ooo[r.rcvNxt] = e
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	r.pendingPkts++
	r.pendingBytes += pkt.PayloadLen
	r.lastDataSent = pkt.SentAt
	if r.pendingPkts >= r.cfg.AckEvery {
		r.flushAck()
		return
	}
	if !r.ackTimer.Armed() {
		r.ackTimer.Reset(r.cfg.DelayedAckTimeout)
	}
}

// flushAck emits the cumulative ACK covering everything pending.
//
//dtlint:hotpath
func (r *Receiver) flushAck() {
	ece := false
	switch {
	case r.cfg.Variant.dctcpLike():
		ece = r.ceState
	case r.cfg.Variant == RenoECN:
		ece = r.eceLatched
	}
	ack := r.host.AllocPacket()
	ack.Flow = r.flow
	ack.Dst = r.peer
	ack.Size = r.cfg.HeaderBytes
	ack.IsAck = true
	ack.Ack = r.rcvNxt
	ack.ECT = r.cfg.ECT()
	ack.ECE = ece
	ack.DelayedCount = r.pendingPkts
	ack.EchoSentAt = r.lastDataSent
	ack.SentAt = r.engine.Now()
	r.pendingPkts = 0
	r.pendingBytes = 0
	r.ackTimer.Stop()
	r.stats.AcksSent++
	r.host.Send(ack)
}

// hostEngine is the engine an endpoint on h must schedule on: the host's
// own engine, which is the shard engine under partitioned execution and
// the network's single engine otherwise. Kept as a helper so endpoint
// constructors take just the host.
func hostEngine(h *netsim.Host) *sim.Engine {
	return h.Engine()
}

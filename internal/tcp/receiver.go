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
	host *netsim.Host
	flow netsim.FlowID
	peer netsim.NodeID

	// The two Config fields a receiver reads, taken by open.
	variant  Variant
	ackEvery int

	// total and done are what Expect set: the transfer's size and the
	// owner's completion handler, nil for a receiver that never completes.
	total int64
	done  func(r *Receiver)

	rcvNxt int64
	// ooo holds the out-of-order data beyond rcvNxt as disjoint spans,
	// sorted by start; no two spans overlap or touch (insert coalesces).
	// It is made at the first out-of-order segment.
	ooo []span

	// Delayed-ACK state.
	pendingPkts  int // data packets not yet acknowledged
	lastDataSent sim.Time
	ackTimer     sim.Timer

	// ECN echo state.
	ceState    bool // DCTCP: CE value of the current run of packets
	eceLatched bool // RenoECN: latched until CWR

	stats ReceiverStats
}

// span is the buffered byte range [start, end).
type span struct{ start, end int64 }

// oooInitialCap is the span capacity a receiver's first out-of-order
// segment makes: the smallest that keeps a steady fresh-connection incast
// round allocation-free (internal/workload's
// TestFreshConnectionRoundsAllocFree fails at 1). A recycled receiver
// keeps whatever capacity it grew to.
const oooInitialCap = 2

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

// TimeWait is what a closed receiver leaves behind, the counterpart of a
// socket's TIME_WAIT record: exactly the state the ACK of a late duplicate
// reads — the cumulative ACK point is the transfer's size — plus the
// counter a workload reports. A receiver opened again for the same flow
// resumes from it (Resume).
type TimeWait struct {
	lastDataSent sim.Time
	// outOfOrder is ReceiverStats.OutOfOrder, narrowed so that the record
	// packs into 16 bytes.
	outOfOrder          uint32
	ceState, eceLatched bool
}

// OutOfOrder returns the closed receiver's ReceiverStats.OutOfOrder.
func (tw TimeWait) OutOfOrder() uint64 { return uint64(tw.outOfOrder) }

// NewReceiver creates a receiver for flow on host, acknowledging to peer.
// It registers itself as the host's endpoint for the flow.
func NewReceiver(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, cfg Config) *Receiver {
	r := &Receiver{}
	r.open(host, flow, peer, cfg)
	return r
}

// Reopen is Sender.Reopen for a retired receiver: it refuses while the
// delayed-ACK timer is armed.
//
//dtlint:hotpath
func (r *Receiver) Reopen(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, cfg Config) bool {
	if r.ackTimer.Armed() {
		return false
	}
	r.open(host, flow, peer, cfg)
	return true
}

// open is the one definition of a fresh connection's receiver state (see
// Sender.open); the delayed-ACK timer, in place, and the emptied span
// list survive it.
//
//dtlint:hotpath
func (r *Receiver) open(host *netsim.Host, flow netsim.FlowID, peer netsim.NodeID, cfg Config) {
	ooo, ack := r.ooo, r.ackTimer
	*r = Receiver{
		host:     host,
		flow:     flow,
		peer:     peer,
		variant:  cfg.Variant,
		ackEvery: cfg.AckEvery,
		ooo:      ooo[:0],
		ackTimer: ack,
	}
	r.ackTimer.Init(host.Engine(), receiverDelayedAck, r)
	host.Register(flow, r)
}

// Expect tells the receiver that its transfer is total bytes (total > 0)
// and makes done its completion handler, the mirror of Sender.OnComplete:
// once every byte up to total is received and no ACK is pending, the
// receiver calls done — after a Deliver or a delayed ACK, never inside
// either — and done may Close it. A receiver nobody calls Expect on never
// completes; opening the storage again clears both.
//
//dtlint:hotpath
func (r *Receiver) Expect(total int64, done func(r *Receiver)) {
	r.total, r.done = total, done
}

// Close unregisters a receiver whose completion handler is running and
// returns its TIME_WAIT record. No timer of it is armed, so the storage
// may be reopened at once, for any flow.
//
//dtlint:hotpath
func (r *Receiver) Close() TimeWait {
	r.host.Unregister(r.flow)
	return TimeWait{
		lastDataSent: r.lastDataSent,
		outOfOrder:   uint32(r.stats.OutOfOrder),
		ceState:      r.ceState,
		eceLatched:   r.eceLatched,
	}
}

// Resume puts a receiver just opened for a closed flow, and told to
// Expect that flow's size, back in the state it closed in. A complete
// flow receives only duplicates, and a closed receiver's state is the
// record plus what every complete, idle receiver shares (nothing
// buffered, nothing pending, no timer armed), so every ACK it sends from
// here on is the one it would have sent had it never closed.
//
//dtlint:hotpath
func (r *Receiver) Resume(tw TimeWait) {
	r.rcvNxt = r.total
	r.lastDataSent = tw.lastDataSent
	r.ceState, r.eceLatched = tw.ceState, tw.eceLatched
	r.stats.OutOfOrder = uint64(tw.outOfOrder)
}

// Stats returns a copy of the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Received returns the number of contiguous bytes delivered so far.
func (r *Receiver) Received() int64 { return r.rcvNxt }

// Flow returns the receiver's flow ID.
func (r *Receiver) Flow() netsim.FlowID { return r.flow }

// Deliver implements netsim.Endpoint for inbound data packets. Whichever
// way a data segment is handled, the completion check runs after it.
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
	case r.variant.dctcpLike():
		if pkt.CE != r.ceState {
			// CE state change: flush the pending ACK with the old
			// state so every ACK reports a uniform CE run.
			if r.pendingPkts > 0 {
				r.flushAck()
			}
			r.ceState = pkt.CE
		}
	case r.variant == RenoECN:
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
	case pkt.Seq > r.rcvNxt:
		// Out of order: buffer and send an immediate dup ACK.
		r.stats.OutOfOrder++
		r.insert(pkt.Seq, end)
		r.pendingPkts++
		r.flushAck()
	default:
		// In-order (possibly overlapping) segment: advance, then pop
		// every leading span the new edge reaches. rcvNxt lands on the
		// end of the contiguous coverage of everything received.
		r.rcvNxt = end
		n := 0
		for n < len(r.ooo) && r.ooo[n].start <= r.rcvNxt {
			r.rcvNxt = max(r.rcvNxt, r.ooo[n].end)
			n++
		}
		if n > 0 {
			r.ooo = r.ooo[:copy(r.ooo, r.ooo[n:])]
		}

		r.pendingPkts++
		r.lastDataSent = pkt.SentAt
		if r.pendingPkts >= r.ackEvery {
			r.flushAck()
		} else if !r.ackTimer.Armed() {
			r.ackTimer.Reset(delayedAckTimeout)
		}
	}
	r.checkDone()
}

// receiverDelayedAck is the delayed-ACK timer's callback.
//
//dtlint:hotpath
func receiverDelayedAck(arg any) { arg.(*Receiver).onDelayedAck() }

// onDelayedAck is the delayed-ACK timer's handler.
//
//dtlint:hotpath
func (r *Receiver) onDelayedAck() {
	r.flushAck()
	r.checkDone()
}

// checkDone calls the completion handler once the transfer Expect named
// is acknowledged in full: every byte received and no ACK pending, hence
// no timer armed.
//
//dtlint:hotpath
func (r *Receiver) checkDone() {
	if r.done != nil && r.rcvNxt >= r.total && r.pendingPkts == 0 {
		r.done(r)
	}
}

// insert buffers [start, end), merging it with every span it overlaps or
// touches, so the list stays sorted, disjoint and coalesced. Segments
// mostly arrive in sequence order, so the scan starts at the tail.
//
//dtlint:hotpath
func (r *Receiver) insert(start, end int64) {
	if end <= start {
		return
	}
	o := r.ooo
	i := len(o) // first span that overlaps or touches [start, end)
	for i > 0 && o[i-1].end >= start {
		i--
	}
	j := i // first span past it
	for j < len(o) && o[j].start <= end {
		j++
	}
	if i == j {
		if cap(o) == 0 {
			//dtlint:allow hotalloc: made at the connection's first out-of-order segment, and a recycled receiver keeps it
			o = make([]span, 0, oooInitialCap)
		}
		//dtlint:allow hotalloc: grows to the most holes a recovery leaves open, and a recycled receiver keeps it
		o = append(o, span{})
		copy(o[i+1:], o[i:])
		o[i] = span{start, end}
		r.ooo = o
		return
	}
	o[i] = span{min(start, o[i].start), max(end, o[j-1].end)}
	r.ooo = o[:i+1+copy(o[i+1:], o[j:])]
}

// flushAck emits the cumulative ACK covering everything pending.
//
//dtlint:hotpath
func (r *Receiver) flushAck() {
	ece := false
	switch {
	case r.variant.dctcpLike():
		ece = r.ceState
	case r.variant == RenoECN:
		ece = r.eceLatched
	}
	ack := r.host.AllocPacket()
	ack.Flow = r.flow
	ack.Dst = r.peer
	ack.Size = headerBytes
	ack.IsAck = true
	ack.Ack = r.rcvNxt
	ack.ECT = r.variant.ect()
	ack.ECE = ece
	ack.DelayedCount = int32(r.pendingPkts)
	ack.EchoSentAt = r.lastDataSent
	ack.SentAt = r.host.Engine().Now()
	r.pendingPkts = 0
	r.ackTimer.Stop()
	r.stats.AcksSent++
	r.host.Send(ack)
}

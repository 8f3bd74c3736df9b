// Package netsim models the network elements of the paper's experiments:
// packets, rate-limited links with propagation delay, output-queued switch
// ports with pluggable AQM, switches with static routing, and hosts that
// demultiplex packets to transport endpoints.
//
// The model is deliberately at the abstraction level of ns-2's wired
// stack — the substrate the paper's simulations used: store-and-forward
// output queues, exact serialization times, fixed propagation delays, and
// instantaneous ECN marking at enqueue.
package netsim

import (
	"fmt"

	"dtdctcp/internal/sim"
)

// NodeID identifies a host or switch within one Network.
type NodeID int32

// FlowID identifies a transport flow. Data packets and their ACKs share
// the flow ID, which is how hosts demultiplex. Runners refuse a
// configuration whose flow ids would pass math.MaxInt32.
type FlowID int32

// Packet is the single wire unit of the simulator. One concrete struct
// (rather than per-protocol types) keeps the hot path free of interface
// dispatch; unused fields are zero. Its 32-bit ids and lengths keep it
// at 80 bytes.
type Packet struct {
	// Flow is the transport flow the packet belongs to.
	Flow FlowID
	// Src and Dst are the endpoints; switches route on Dst.
	Src, Dst NodeID
	// Size is the on-wire size in bytes, headers included.
	Size int32
	// PayloadLen is the number of payload bytes carried.
	PayloadLen int32
	// DelayedCount is the number of data packets this (delayed) ACK
	// acknowledges, used by the DCTCP sender to weight marked bytes.
	DelayedCount int32

	// Seq is the byte sequence number of the first payload byte.
	Seq int64
	// Ack is the cumulative acknowledgement number (next expected byte),
	// meaningful when IsAck.
	Ack int64

	// SentAt is the instant the sender handed the packet to its port,
	// echoed on ACKs for RTT sampling.
	SentAt sim.Time
	// EnqueuedAt is stamped by the port on acceptance; dequeue-time
	// queue laws (CoDel) read the sojourn time from it.
	EnqueuedAt sim.Time
	// EchoSentAt is the SentAt of the data packet that triggered this
	// ACK (for RTT measurement at the sender).
	EchoSentAt sim.Time

	// via is the port that last dequeued the packet for transmission:
	// the transmit chain's handlers find their port through it.
	via *Port

	// ECT marks an ECN-capable transport; only ECT packets are marked
	// by AQM (non-ECT packets would be dropped by PIE or CoDel).
	ECT bool
	// CE is the Congestion-Experienced codepoint, set by switches.
	CE bool
	// ECE is the receiver's echo of CE back to the sender (carried on
	// ACKs, per the DCTCP echo state machine).
	ECE bool
	// CWR is set by a classic-ECN sender on the first data packet after
	// a window reduction, telling the receiver to stop latching ECE.
	CWR bool
	// IsAck marks a pure acknowledgement (no payload).
	IsAck bool

	// pooled marks a packet born from a Network's free list; only such
	// packets are recycled at delivery/drop points. freed guards against
	// double-recycling.
	pooled bool
	freed  bool
}

// String renders a compact description for traces.
func (p *Packet) String() string {
	kind := "data"
	if p.IsAck {
		kind = "ack"
	}
	return fmt.Sprintf("%s flow=%d %d→%d seq=%d ack=%d len=%d ce=%t ece=%t",
		kind, p.Flow, p.Src, p.Dst, p.Seq, p.Ack, p.PayloadLen, p.CE, p.ECE)
}

// Package trace records structured per-packet simulator events as JSON
// Lines, the debugging/analysis sidecar any released network simulator
// needs: attach a Recorder to a port (it implements netsim.PortTracer)
// and every enqueue, dequeue, CE mark, and drop becomes one JSON object
// with the virtual timestamp.
//
// # Fault events
//
// The Recorder also takes the fault hooks of netsim.PortTracer, so a port
// whose link is taken down (Port.SetDown) or made lossy
// (Port.SetCorruptProb) reports its fault events in the same JSONL
// stream:
//
//   - "link-down" / "link-up": the port's link changed state; qlen is
//     the queue occupancy at the transition (nonzero on link-down means
//     packets are being held in drain mode, or were just flushed).
//   - "corrupt": a packet was lost to probabilistic corruption after
//     serialization (it never reaches the far end).
//   - "drop-link-down": a packet lost to a down link — an arrival at a
//     down port, an in-flight transmission cut by the outage, or a
//     queued packet discarded by a flush.
//
// All fault events carry the usual packet fields when a packet is
// involved; link-state events are link-scoped and carry none.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// Kind labels one traced event.
type Kind string

// Event kinds emitted by Recorder.
const (
	// KindEnqueue is a packet accepted into a queue.
	KindEnqueue Kind = "enqueue"
	// KindDequeue is a packet entering transmission.
	KindDequeue Kind = "dequeue"
	// KindMark is a packet accepted with CE set by this port (also
	// reported as its enqueue's marked field).
	KindMark Kind = "mark"
	// KindDropOverflow is a packet lost to buffer exhaustion.
	KindDropOverflow Kind = "drop-overflow"
	// KindDropPolicy is a packet dropped by the queue law.
	KindDropPolicy Kind = "drop-policy"
	// KindLinkDown is a port's link going down.
	KindLinkDown Kind = "link-down"
	// KindLinkUp is a port's link coming back up.
	KindLinkUp Kind = "link-up"
	// KindCorrupt is a packet lost to probabilistic corruption.
	KindCorrupt Kind = "corrupt"
	// KindDropLinkDown is a packet lost to a down link (arrival, cut
	// in-flight transmission, or flushed queue slot).
	KindDropLinkDown Kind = "drop-link-down"
)

// Event is one JSONL record.
type Event struct {
	// T is the virtual timestamp in seconds.
	T float64 `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Flow is the packet's flow, when applicable.
	Flow int `json:"flow,omitempty"`
	// Seq is the packet's byte sequence number (data packets).
	Seq int64 `json:"seq,omitempty"`
	// Ack is the cumulative acknowledgement (ACK packets).
	Ack int64 `json:"ack,omitempty"`
	// Bytes is the packet's wire size.
	Bytes int `json:"bytes,omitempty"`
	// QueuePkts is the queue occupancy after the event, in packets of
	// the recorder's configured size (0 disables the conversion and the
	// field reports bytes).
	QueuePkts float64 `json:"qlen,omitempty"`
	// Marked reports CE set at this port (enqueue events).
	Marked bool `json:"marked,omitempty"`
}

// Recorder streams events to an io.Writer as JSON Lines. It implements
// netsim.PortTracer. The zero value is unusable; use NewRecorder.
type Recorder struct {
	w   *bufio.Writer
	enc *json.Encoder
	// PacketSize, when positive, converts queue occupancy to packets.
	PacketSize int

	events uint64
	err    error
}

// NewRecorder creates a recorder writing JSONL to w.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{w: bw, enc: json.NewEncoder(bw)}
}

// Events reports how many events were written.
func (r *Recorder) Events() uint64 { return r.events }

// Err returns the first write error, if any. Writes after an error are
// dropped silently (tracing must never take down a simulation).
func (r *Recorder) Err() error { return r.err }

// Flush drains buffered output to the underlying writer.
func (r *Recorder) Flush() error {
	if err := r.w.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}

// emit writes one event.
func (r *Recorder) emit(ev Event) {
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(ev); err != nil {
		r.err = fmt.Errorf("trace: %w", err)
		return
	}
	r.events++
}

// PacketEnqueued implements netsim.PortTracer.
func (r *Recorder) PacketEnqueued(now sim.Time, pkt *netsim.Packet, qlenBytes int, marked bool) {
	ev := r.packetEvent(now, pkt, qlenBytes)
	ev.Kind = KindEnqueue
	ev.Marked = marked
	r.emit(ev)
	if marked {
		mk := ev
		mk.Kind = KindMark
		r.emit(mk)
	}
}

// PacketDequeued implements netsim.PortTracer.
func (r *Recorder) PacketDequeued(now sim.Time, pkt *netsim.Packet, qlenBytes int) {
	ev := r.packetEvent(now, pkt, qlenBytes)
	ev.Kind = KindDequeue
	r.emit(ev)
}

// PacketDropped implements netsim.PortTracer.
func (r *Recorder) PacketDropped(now sim.Time, pkt *netsim.Packet, qlenBytes int, overflow bool) {
	ev := r.packetEvent(now, pkt, qlenBytes)
	if overflow {
		ev.Kind = KindDropOverflow
	} else {
		ev.Kind = KindDropPolicy
	}
	r.emit(ev)
}

// PacketFaulted implements netsim.PortTracer: a packet lost to a fault
// (corruption or a down link).
func (r *Recorder) PacketFaulted(now sim.Time, pkt *netsim.Packet, qlenBytes int, kind netsim.FaultKind) {
	ev := r.packetEvent(now, pkt, qlenBytes)
	switch kind {
	case netsim.FaultCorrupt:
		ev.Kind = KindCorrupt
	default:
		ev.Kind = KindDropLinkDown
	}
	r.emit(ev)
}

// LinkStateChanged implements netsim.PortTracer: the traced port's link
// went down or came back up.
func (r *Recorder) LinkStateChanged(now sim.Time, up bool, qlenBytes int) {
	q := float64(qlenBytes)
	if r.PacketSize > 0 {
		q /= float64(r.PacketSize)
	}
	kind := KindLinkDown
	if up {
		kind = KindLinkUp
	}
	r.emit(Event{T: now.Seconds(), Kind: kind, QueuePkts: q})
}

func (r *Recorder) packetEvent(now sim.Time, pkt *netsim.Packet, qlenBytes int) Event {
	q := float64(qlenBytes)
	if r.PacketSize > 0 {
		q /= float64(r.PacketSize)
	}
	ev := Event{
		T:         now.Seconds(),
		Flow:      int(pkt.Flow),
		Bytes:     pkt.Size,
		QueuePkts: q,
	}
	if pkt.IsAck {
		ev.Ack = pkt.Ack
	} else {
		ev.Seq = pkt.Seq
	}
	return ev
}

var _ netsim.PortTracer = (*Recorder)(nil)

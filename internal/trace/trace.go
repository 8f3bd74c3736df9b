// Package trace records structured per-packet simulator events as JSON
// Lines, the debugging/analysis sidecar any released network simulator
// needs: attach a Recorder to a port (it implements netsim.PortTracer)
// and every enqueue, dequeue, CE mark, and drop becomes one JSON object
// with the virtual timestamp.
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

func (r *Recorder) packetEvent(now sim.Time, pkt *netsim.Packet, qlenBytes int) Event {
	q := float64(qlenBytes)
	if r.PacketSize > 0 {
		q /= float64(r.PacketSize)
	}
	ev := Event{
		T:         now.Seconds(),
		Flow:      int(pkt.Flow),
		Bytes:     int(pkt.Size),
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

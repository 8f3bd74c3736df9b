package tcp

import (
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// timeWaitSide is one receiver under FuzzReceiverTimeWait, on its own
// network, with the ACKs it emitted. A closing side Expects the transfer
// and closes to a TIME_WAIT record when it completes; before each later
// segment it opens a receiver again and resumes it from the record, as
// flowgen's passive open does. The other side is never told the size and
// stays open.
type timeWaitSide struct {
	engine  *sim.Engine
	host    *netsim.Host
	peer    netsim.NodeID
	cfg     Config
	total   int64
	r       *Receiver
	acks    ackRecorder
	closing bool

	closed          bool
	tw              TimeWait
	closes, resumes int
}

func newTimeWaitSide(t testing.TB, cfg Config, total int64, closing bool) *timeWaitSide {
	s := &timeWaitSide{cfg: cfg, total: total, closing: closing}
	var peer *netsim.Host
	s.engine, s.host, peer = receiverNet(t, &s.acks)
	s.peer = peer.ID()
	s.r = NewReceiver(s.host, 1, s.peer, cfg)
	if closing {
		s.r.Expect(total, s.close)
	}
	return s
}

func (s *timeWaitSide) close(r *Receiver) {
	s.tw, s.closed = r.Close(), true
	s.closes++
}

// deliver hands the side one segment stamped with its clock. A closed
// side first reopens its storage — or, with fresh set, builds a new
// receiver — and resumes it from the record.
func (s *timeWaitSide) deliver(t *testing.T, pkt netsim.Packet, fresh bool) {
	if s.closed {
		if fresh {
			s.r = NewReceiver(s.host, 1, s.peer, s.cfg)
		} else if !s.r.Reopen(s.host, 1, s.peer, s.cfg) {
			t.Fatal("Reopen refused a closed receiver")
		}
		s.r.Expect(s.total, s.close)
		s.r.Resume(s.tw)
		s.closed = false
		s.resumes++
	}
	pkt.SentAt = s.engine.Now()
	s.r.Deliver(&pkt)
}

// outOfOrder is the side's ReceiverStats.OutOfOrder, read from the record
// while it is closed.
func (s *timeWaitSide) outOfOrder() uint64 {
	if s.closed {
		return s.tw.OutOfOrder()
	}
	return s.r.Stats().OutOfOrder
}

// FuzzReceiverTimeWait holds a receiver that closes to a TIME_WAIT record
// and resumes from it to one that never closes. Both take the same
// transfer, to full acknowledgment, then the same tail of duplicates,
// CE and CWR flips and delayed-ACK pauses; every ACK (Ack, ECE,
// DelayedCount, EchoSentAt) and OutOfOrder must be equal, and every tail
// segment must have been answered by a resumed receiver.
//
// The input: byte 0 picks the variant and AckEvery; byte 1 the transfer,
// 1–8 segments of 100 bytes; then one byte per segment of a Fisher–Yates
// draw of their order; then one flags byte per segment (bit 0 CE, bit 1
// CWR, bits 2–3 the pause before it). Every further three bytes are one
// tail segment: flags (as above, plus bit 4: resume on new storage),
// start and length, folded into a duplicate inside the transfer. The seed
// corpus (testdata/fuzz/FuzzReceiverTimeWait) covers DCTCP's CE flips
// with AckEvery 1 and 2, RenoECN's latch and CWR release, a Reno transfer
// that completes only when its delayed ACK fires, and resumes on new
// storage.
func FuzzReceiverTimeWait(f *testing.F) {
	pauses := [4]time.Duration{0, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		at := 2
		next := func() byte {
			if at >= len(data) {
				return 0
			}
			at++
			return data[at-1]
		}
		cfg := DefaultConfig([]Variant{Reno, RenoECN, DCTCP}[data[0]%3])
		cfg.AckEvery = 1 + int(data[0]/3%2)
		const mss = 100
		n := 1 + int(data[1]%8)
		total := int64(n * mss)
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := int(next()) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		got, want := newTimeWaitSide(t, cfg, total, true), newTimeWaitSide(t, cfg, total, false)
		sides := []*timeWaitSide{got, want}
		step := func(flags byte, seq, length int64) {
			pkt := netsim.Packet{Flow: 1, Seq: seq, PayloadLen: int32(length), Size: int32(length) + 40,
				CE: flags&1 != 0, CWR: flags&2 != 0, ECT: true}
			for _, s := range sides {
				if err := s.engine.RunFor(pauses[flags>>2&3]); err != nil {
					t.Fatal(err)
				}
				s.deliver(t, pkt, flags&16 != 0)
			}
		}

		for _, k := range order {
			step(next(), int64(k*mss), mss)
		}
		for _, s := range sides {
			if err := s.engine.RunFor(10 * time.Millisecond); err != nil { // the last delayed ACK
				t.Fatal(err)
			}
		}
		if !got.closed || got.closes != 1 {
			t.Fatalf("after the transfer: closed %v after %d closes, want closed once", got.closed, got.closes)
		}

		tail := 0
		for ; at+2 < len(data); tail++ {
			flags, b1, b2 := next(), next(), next()
			start := int64(b1) * 10 % total
			step(flags, start, 1+int64(b2)*10%(total-start))
		}
		for _, s := range sides {
			if err := s.engine.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if !got.closed || got.resumes != tail || got.closes != 1+tail {
			t.Fatalf("%d tail segments: %d resumes, %d closes, closed %v — each should resume and close again",
				tail, got.resumes, got.closes, got.closed)
		}

		if len(got.acks.acks) != len(want.acks.acks) {
			t.Fatalf("%d ACKs, never-closed receiver %d", len(got.acks.acks), len(want.acks.acks))
		}
		for i, a := range got.acks.acks {
			b := want.acks.acks[i]
			if a.Ack != b.Ack || a.ECE != b.ECE || a.DelayedCount != b.DelayedCount || a.EchoSentAt != b.EchoSentAt {
				t.Fatalf("ACK %d: {Ack %d ECE %v DelayedCount %d EchoSentAt %v}, never-closed receiver {Ack %d ECE %v DelayedCount %d EchoSentAt %v}",
					i, a.Ack, a.ECE, a.DelayedCount, a.EchoSentAt, b.Ack, b.ECE, b.DelayedCount, b.EchoSentAt)
			}
		}
		if g, w := got.outOfOrder(), want.outOfOrder(); g != w {
			t.Fatalf("OutOfOrder %d, never-closed receiver %d", g, w)
		}
	})
}

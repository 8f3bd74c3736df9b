package tcp

import (
	"reflect"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// refReassembly is the receiver as it stood before its out-of-order
// buffer became a span list: a map from segment start to the largest end
// seen there, drained on every in-order arrival by a fixpoint that
// consumes exact continuations and re-anchors or drops straddling and
// obsolete ranges. It is the oracle Receiver.Deliver is held to. The
// connection, the ECN echo state and the ACK path live in the embedded
// Receiver; Deliver below shadows its reassembly.
type refReassembly struct {
	*Receiver
	ooo map[int64]int64
}

func (r *refReassembly) Deliver(pkt *netsim.Packet) {
	if pkt.IsAck {
		return
	}
	r.stats.Segments++
	if pkt.CE {
		r.stats.CEMarked++
	}
	switch {
	case r.variant.dctcpLike():
		if pkt.CE != r.ceState {
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
		r.stats.DupSegments++
		r.pendingPkts++
		r.flushAck()
		return
	case pkt.Seq > r.rcvNxt:
		r.stats.OutOfOrder++
		if old, ok := r.ooo[pkt.Seq]; !ok || end > old {
			r.ooo[pkt.Seq] = end
		}
		r.pendingPkts++
		r.flushAck()
		return
	}

	// Each outer iteration either consumes an exact continuation or
	// re-anchors/discards straddling and obsolete ranges, so the loop
	// terminates. Every path keeps the max end per key, so the fixpoint
	// does not depend on map iteration order.
	r.rcvNxt = end
	for {
		if e, ok := r.ooo[r.rcvNxt]; ok {
			delete(r.ooo, r.rcvNxt)
			r.rcvNxt = e
			continue
		}
		changed := false
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
	r.lastDataSent = pkt.SentAt
	if r.pendingPkts >= r.ackEvery {
		r.flushAck()
		return
	}
	if !r.ackTimer.Armed() {
		r.ackTimer.Reset(delayedAckTimeout)
	}
}

// receiverNet is the smallest network a receiver runs on: the receiving
// host, a peer host whose flow 1 is ep, and one switch between them.
func receiverNet(t testing.TB, ep netsim.Endpoint) (e *sim.Engine, rcv, peer *netsim.Host) {
	t.Helper()
	e = sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	rcv = n.AddHost("rcv")
	peer = n.AddHost("peer")
	sw := n.AddSwitch("sw")
	cfg := netsim.PortConfig{Rate: netsim.Gbps, Delay: time.Microsecond, Buffer: 1 << 20}
	if err := n.Connect(rcv, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(peer, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	peer.Register(1, ep)
	return e, rcv, peer
}

// reassemblySide is one receiver under the fuzz target, on its own
// network, with the ACKs it emitted.
type reassemblySide struct {
	engine *sim.Engine
	ep     netsim.Endpoint
	r      *Receiver
	acks   ackRecorder
}

func newReassemblySide(t testing.TB, cfg Config, ref bool) *reassemblySide {
	s := &reassemblySide{}
	var rcv, peer *netsim.Host
	s.engine, rcv, peer = receiverNet(t, &s.acks)
	s.r = NewReceiver(rcv, 1, peer.ID(), cfg)
	s.ep = s.r
	if ref {
		s.ep = &refReassembly{Receiver: s.r, ooo: make(map[int64]int64)}
	}
	return s
}

// FuzzReceiverReassembly holds Receiver to refReassembly on arbitrary
// segment sequences: gaps, overlaps, exact duplicates, straddles, empty
// segments, CE and CWR flips, pauses that let the delayed ACK fire. The
// first byte picks the variant and AckEvery; every further three bytes
// are one segment: flags (bit 0 CE, bit 1 CWR, bits 2–3 the pause before
// it), start in 50-byte units, length in 50-byte units. The emitted ACK
// streams (Ack, ECE, DelayedCount), Received after every segment and the
// final ReceiverStats must be identical.
func FuzzReceiverReassembly(f *testing.F) {
	seg := func(flags, start, length byte) []byte { return []byte{flags, start, length} }
	cat := func(head byte, segs ...[]byte) []byte {
		out := []byte{head}
		for _, s := range segs {
			out = append(out, s...)
		}
		return out
	}
	// Straddle that re-anchors twice: [100,300) and [250,600) buffered,
	// then [0,200) re-anchors the first at 200, drains to 300, and
	// re-anchors the second at 300.
	f.Add(cat(0, seg(0, 2, 4), seg(0, 5, 7), seg(0, 0, 4)))
	// A loss and its recovery: segments 0, 2..5, then 1.
	f.Add(cat(2, seg(0, 0, 2), seg(0, 4, 2), seg(0, 6, 2), seg(0, 8, 2), seg(0, 10, 2), seg(0, 2, 2)))
	// Two holes, exact duplicates, an obsolete buffered range, and a CE
	// flip under DCTCP with delayed ACKs.
	f.Add(cat(5, seg(0, 0, 2), seg(1, 4, 2), seg(1, 4, 2), seg(0, 10, 2), seg(0, 0, 2), seg(1, 2, 6), seg(0, 8, 2), seg(4, 12, 1)))
	// RenoECN latch and CWR release, AckEvery 2, pauses that fire the
	// delayed ACK, an empty segment beyond the edge.
	f.Add(cat(4, seg(1, 0, 2), seg(8, 2, 2), seg(2, 4, 2), seg(0, 9, 0), seg(12, 6, 3), seg(0, 8, 4)))
	// Overlapping buffered ranges that cover one another, in reverse
	// order, under RenoECN.
	f.Add(cat(1, seg(0, 20, 5), seg(0, 15, 20), seg(0, 10, 3), seg(0, 12, 1), seg(0, 1, 9), seg(0, 0, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := DefaultConfig([]Variant{Reno, RenoECN, DCTCP}[data[0]%3])
		cfg.AckEvery = 1 + int(data[0]/3%2)
		got, want := newReassemblySide(t, cfg, false), newReassemblySide(t, cfg, true)
		pauses := [4]time.Duration{0, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond}
		for i := 1; i+2 < len(data); i += 3 {
			flags := data[i]
			pkt := netsim.Packet{
				Flow:       1,
				Seq:        int64(data[i+1]) * 50,
				PayloadLen: int32(data[i+2]) * 50,
				CE:         flags&1 != 0,
				CWR:        flags&2 != 0,
				ECT:        true,
			}
			pkt.Size = pkt.PayloadLen + 40
			for _, s := range []*reassemblySide{got, want} {
				if err := s.engine.RunFor(pauses[flags>>2&3]); err != nil {
					t.Fatal(err)
				}
				p := pkt
				p.SentAt = s.engine.Now()
				s.ep.Deliver(&p)
			}
			if got.r.Received() != want.r.Received() {
				t.Fatalf("segment %d [%d,%d): Received %d, reference %d",
					i/3, pkt.Seq, pkt.Seq+int64(pkt.PayloadLen), got.r.Received(), want.r.Received())
			}
		}
		for _, s := range []*reassemblySide{got, want} {
			if err := s.engine.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if len(got.acks.acks) != len(want.acks.acks) {
			t.Fatalf("%d ACKs, reference %d", len(got.acks.acks), len(want.acks.acks))
		}
		for i, a := range got.acks.acks {
			b := want.acks.acks[i]
			if a.Ack != b.Ack || a.ECE != b.ECE || a.DelayedCount != b.DelayedCount {
				t.Fatalf("ACK %d: {Ack %d ECE %v DelayedCount %d}, reference {Ack %d ECE %v DelayedCount %d}",
					i, a.Ack, a.ECE, a.DelayedCount, b.Ack, b.ECE, b.DelayedCount)
			}
		}
		if g, w := got.r.Stats(), want.r.Stats(); !reflect.DeepEqual(g, w) {
			t.Fatalf("stats %+v, reference %+v", g, w)
		}
	})
}

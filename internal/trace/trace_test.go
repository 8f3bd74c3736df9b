package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

func decodeAll(t *testing.T, raw string) []Event {
	t.Helper()
	var out []Event
	sc := bufio.NewScanner(strings.NewReader(raw))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	return out
}

func TestRecorderPacketEvents(t *testing.T) {
	var b strings.Builder
	r := NewRecorder(&b)
	r.PacketSize = 1500

	pkt := &netsim.Packet{Flow: 7, Seq: 1460, Size: 1500}
	r.PacketEnqueued(sim.FromDuration(time.Microsecond), pkt, 3000, true)
	r.PacketDequeued(sim.FromDuration(2*time.Microsecond), pkt, 1500)
	r.PacketDropped(sim.FromDuration(3*time.Microsecond), pkt, 3000, true)
	r.PacketDropped(sim.FromDuration(4*time.Microsecond), pkt, 3000, false)
	ack := &netsim.Packet{Flow: 7, IsAck: true, Ack: 2920, Size: 40}
	r.PacketEnqueued(sim.FromDuration(5*time.Microsecond), ack, 40, false)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}

	evs := decodeAll(t, b.String())
	// enqueue + mark, dequeue, drop-overflow, drop-policy, enqueue = 6.
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	if evs[0].Kind != KindEnqueue || !evs[0].Marked || evs[0].QueuePkts != 2 {
		t.Fatalf("first event: %+v", evs[0])
	}
	if evs[1].Kind != KindMark {
		t.Fatalf("second event: %+v", evs[1])
	}
	if evs[2].Kind != KindDequeue || evs[2].QueuePkts != 1 {
		t.Fatalf("dequeue event: %+v", evs[2])
	}
	if evs[3].Kind != KindDropOverflow || evs[4].Kind != KindDropPolicy {
		t.Fatalf("drop events: %+v %+v", evs[3], evs[4])
	}
	if evs[5].Ack != 2920 || evs[5].Seq != 0 {
		t.Fatalf("ack event: %+v", evs[5])
	}
	if r.events != 6 {
		t.Fatalf("events = %d", r.events)
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after -= len(p)
	return len(p), nil
}

func TestRecorderWriteErrorIsSticky(t *testing.T) {
	r := NewRecorder(&failingWriter{after: 0})
	pkt := &netsim.Packet{Flow: 1, Size: 1500}
	for i := 0; i < 10000; i++ { // enough to overflow the bufio buffer
		r.PacketDequeued(0, pkt, i)
	}
	r.Flush()
	if r.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	before := r.events
	r.PacketDequeued(0, pkt, 0) // must be dropped silently
	if r.events != before {
		t.Fatal("events written after error")
	}
}

// Integration: attach the recorder to a live port and check the stream is
// consistent (enqueues ≥ dequeues, counts match port stats), and that every
// packet the overflow dropped went back to the pool.
func TestRecorderOnLivePort(t *testing.T) {
	e := sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	a := n.AddHost("a")
	bHost := n.AddHost("b")
	sw := n.AddSwitch("sw")
	cfg := netsim.PortConfig{Rate: netsim.Gbps, Delay: time.Microsecond, Buffer: 5 * 1500}
	if err := n.Connect(a, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect(bHost, sw, cfg, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	rec := NewRecorder(&buf)
	rec.PacketSize = 1500
	up := a.Uplink()
	up.SetTracer(rec)

	sinkEp := endpointFunc(func(*netsim.Packet) {})
	bHost.Register(1, sinkEp)
	for i := 0; i < 20; i++ { // overflows the 5-packet buffer
		pkt := n.AllocPacket()
		pkt.Flow, pkt.Dst, pkt.Size = 1, bHost.ID(), 1500
		a.Send(pkt)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	evs := decodeAll(t, buf.String())
	var enq, deq, drop int
	for _, ev := range evs {
		switch ev.Kind {
		case KindEnqueue:
			enq++
		case KindDequeue:
			deq++
		case KindDropOverflow:
			drop++
		}
	}
	st := up.Stats()
	if uint64(enq) != st.Enqueued || uint64(deq) != st.Dequeued || uint64(drop) != st.DroppedOverflow {
		t.Fatalf("trace counts (%d,%d,%d) disagree with port stats %+v", enq, deq, drop, st)
	}
	if drop == 0 {
		t.Fatal("expected overflow drops in this scenario")
	}
	if live := n.LivePackets(); live != 0 {
		t.Fatalf("%d packets still live after the run drained", live)
	}
}

type endpointFunc func(*netsim.Packet)

func (f endpointFunc) Deliver(p *netsim.Packet) { f(p) }

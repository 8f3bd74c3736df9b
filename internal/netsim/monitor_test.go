package netsim

import (
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// driveDiamond pushes count packets per flow (flows 1..flows) from h0 to
// h1, spaced 5µs apart, allocating through the host pool, and returns
// the delivery counter.
func driveDiamond(h0, h1 *Host, flows, count int) *countingSink {
	sink := &countingSink{}
	for f := 1; f <= flows; f++ {
		h1.Register(FlowID(f), sink)
	}
	e := h0.Engine()
	sent := 0
	var step func()
	step = func() {
		for f := 1; f <= flows; f++ {
			pkt := h0.AllocPacket()
			pkt.Flow = FlowID(f)
			pkt.Dst = h1.ID()
			pkt.Size = 1500
			h0.Send(pkt)
		}
		sent++
		if sent < count {
			e.After(5*time.Microsecond, step)
		}
	}
	step()
	return sink
}

// queueLog records queue-change notifications for MultiMonitor fan-out.
type queueLog struct{ n int }

func (q *queueLog) QueueChanged(sim.Time, int) { q.n++ }

func TestMultiMonitorFansOut(t *testing.T) {
	e, _, h0, h1, _, _, _ := diamond(t, 7)
	a, b := &queueLog{}, &queueLog{}
	h0.Uplink().SetMonitor(MultiMonitor{a, b})
	sink := driveDiamond(h0, h1, 1, 10)
	if err := e.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sink.n != 10 {
		t.Fatalf("delivered %d, want 10", sink.n)
	}
	if a.n == 0 || a.n != b.n {
		t.Fatalf("monitors saw %d and %d changes, want equal and nonzero", a.n, b.n)
	}
}

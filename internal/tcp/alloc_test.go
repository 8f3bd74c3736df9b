//go:build !race

package tcp

import (
	"runtime"
	"testing"
	"time"

	"dtdctcp/internal/invariant"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
)

// discard is an endpoint that drops what it is delivered.
type discard struct{}

func (discard) Deliver(*netsim.Packet) {}

// TestReopenedReceiverRecoveryAllocFree pins the span list's storage: a
// reopened receiver that takes one loss — segment 1 of eight missing
// until the others have arrived — and its recovery allocates nothing.
// The hole is one span, inside the capacity a constructed receiver
// starts with, and the drain shifts within the slice.
//
// Excluded from -race builds and skipped under -tags invariants for the
// reasons given in internal/netsim/alloc_test.go.
func TestReopenedReceiverRecoveryAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	e, rcv, peer := receiverNet(t, discard{})
	cfg := DefaultConfig(DCTCP)
	r := NewReceiver(rcv, 1, peer.ID(), cfg)
	order := []int64{0, 2, 3, 4, 5, 6, 7, 1}
	var pkt netsim.Packet
	connection := func() {
		rcv.Unregister(1)
		if !r.Reopen(rcv, 1, peer.ID(), cfg) {
			t.Fatal("Reopen refused a retired receiver")
		}
		for _, i := range order {
			pkt = netsim.Packet{Flow: 1, Seq: i * 1460, PayloadLen: 1460, Size: 1500, ECT: true}
			r.Deliver(&pkt)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if r.Received() != 8*1460 || r.Stats().OutOfOrder != 6 {
			t.Fatalf("received %d bytes, %d out of order; want %d, 6", r.Received(), r.Stats().OutOfOrder, 8*1460)
		}
	}
	connection() // warm the event free list and the packet pool
	if avg := testing.AllocsPerRun(50, connection); avg != 0 {
		t.Fatalf("%.1f allocations per reopened connection with one loss, want 0", avg)
	}
}

// TestConnectionBytes pins what a fresh connection costs before it sends
// anything: the construct-and-unregister loop of the benchmark ladder's
// tcp.conn_new rung makes exactly two objects per connection, the sender
// and the receiver, timers inside, in at most 592 B.
func TestConnectionBytes(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate; alloc accounting is meaningless")
	}
	e := sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	a, b := n.AddHost("a"), n.AddHost("b")
	link := netsim.PortConfig{Rate: 10 * netsim.Gbps, Delay: 10 * time.Microsecond, Buffer: 600 * 1500}
	if err := n.Connect(a, b, link, link); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(DCTCP)
	id := netsim.FlowID(0)
	connection := func() {
		id++
		NewSender(a, id, b.ID(), 1<<20, cfg)
		NewReceiver(b, id, a.ID(), cfg)
		a.Unregister(id)
		b.Unregister(id)
	}
	connection() // the hosts' flow tables take their first slots
	const runs = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		connection()
	}
	runtime.ReadMemStats(&m1)
	mallocs := float64(m1.Mallocs-m0.Mallocs) / runs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	if mallocs != 2 || bytes > 592 {
		t.Fatalf("a connection makes %.2f objects in %.0f B, want 2 in at most 592", mallocs, bytes)
	}
}

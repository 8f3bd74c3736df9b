package netsim

import (
	"math/rand"
	"strings"
	"testing"

	"dtdctcp/internal/sim"
)

// tableSink is a distinguishable endpoint.
type tableSink struct{ delivered int }

func (s *tableSink) Deliver(*Packet) { s.delivered++ }

// checkTable compares the whole table with the reference map: every key of
// the map resolves to its endpoint, the population matches, and — the
// invariant backward-shift deletion exists to keep — no entry sits behind
// an empty slot on its own probe path.
func checkTable(t *testing.T, tab *flowTable, ref map[FlowID]Endpoint) {
	t.Helper()
	if tab.n != len(ref) {
		t.Fatalf("population %d, reference %d", tab.n, len(ref))
	}
	for flow, ep := range ref {
		if got := tab.get(flow); got != ep {
			t.Fatalf("get(%d) = %v, reference %v", flow, got, ep)
		}
	}
	if len(tab.slots) == 0 {
		return
	}
	if 2*tab.n > len(tab.slots) {
		t.Fatalf("%d entries in %d slots: more than half full", tab.n, len(tab.slots))
	}
	mask := uint(len(tab.slots) - 1)
	live := 0
	for i, s := range tab.slots {
		if s.ep == nil {
			if s.flow != 0 {
				t.Fatalf("empty slot %d keeps flow %d", i, s.flow)
			}
			continue
		}
		live++
		for j := tab.home(s.flow); j != uint(i); j = (j + 1) & mask {
			if tab.slots[j].ep == nil {
				t.Fatalf("flow %d at slot %d is unreachable: slot %d on its probe path is empty", s.flow, i, j)
			}
		}
	}
	if live != tab.n {
		t.Fatalf("%d occupied slots, population %d", live, tab.n)
	}
}

// The table against a map under random register/unregister/lookup. The
// key space is a few dozen ids around zero (negative ones included, as
// FlowID may be) so that collisions, re-registration of a deleted
// id and deletes inside long clusters are the common case.
func TestFlowTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab flowTable
		ref := map[FlowID]Endpoint{}
		span := 8 << uint(seed%5) // 8 … 128 distinct ids
		for op := 0; op < 4000; op++ {
			flow := FlowID(rng.Intn(span) - span/4)
			switch rng.Intn(3) {
			case 0:
				if ref[flow] == nil {
					ep := &tableSink{}
					tab.put(flow, ep)
					ref[flow] = ep
				}
			case 1:
				tab.del(flow)
				delete(ref, flow)
			default:
				var want Endpoint
				if ep, ok := ref[flow]; ok {
					want = ep
				}
				if got := tab.get(flow); got != want {
					t.Fatalf("seed %d op %d: get(%d) = %v, reference %v", seed, op, flow, got, want)
				}
			}
			if op%64 == 0 {
				checkTable(t, &tab, ref)
			}
		}
		checkTable(t, &tab, ref)
	}
}

// sameHome returns count flow ids whose home slot in tab is slot.
func sameHome(tab *flowTable, slot uint, count int) []FlowID {
	var out []FlowID
	for f := FlowID(1); len(out) < count; f++ {
		if tab.home(f) == slot {
			out = append(out, f)
		}
	}
	return out
}

// A cluster that wraps from the last slot to the first: deleting from
// its head, middle and tail must pull the wrapped entries back across
// the boundary, and deleting the whole cluster must leave the table
// empty.
func TestFlowTableWrapAroundAndFullClusterDelete(t *testing.T) {
	var tab flowTable
	ref := map[FlowID]Endpoint{}
	// The first table has 2 slots and doubles at half full: three
	// entries grow it 2 → 4 → 8. Deleting them leaves 8 empty slots.
	for f := FlowID(-1); f >= -3; f-- {
		tab.put(f, &tableSink{})
	}
	if len(tab.slots) != 8 {
		t.Fatalf("three entries grew the table to %d slots, want 8", len(tab.slots))
	}
	for f := FlowID(-1); f >= -3; f-- {
		tab.del(f)
	}
	last := uint(len(tab.slots) - 1)
	// Four entries homed on the last slot occupy slots 7, 0, 1, 2.
	cluster := sameHome(&tab, last, 4)
	for _, f := range cluster {
		ep := &tableSink{}
		tab.put(f, ep)
		ref[f] = ep
	}
	if len(tab.slots) != 8 {
		t.Fatalf("table grew to %d slots; the case needs 4 entries in 8", len(tab.slots))
	}
	if tab.slots[last].ep == nil || tab.slots[0].ep == nil || tab.slots[2].ep == nil || tab.slots[3].ep != nil {
		t.Fatalf("cluster does not wrap as intended: %+v", tab.slots)
	}
	checkTable(t, &tab, ref)

	for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 0, 3, 2}, {2, 3, 0, 1}} {
		for _, k := range order {
			tab.del(cluster[k])
			delete(ref, cluster[k])
			checkTable(t, &tab, ref)
		}
		if tab.n != 0 {
			t.Fatalf("%d entries left after deleting the whole cluster", tab.n)
		}
		for i, s := range tab.slots {
			if s != (flowSlot{}) {
				t.Fatalf("slot %d not cleared: %+v", i, s)
			}
		}
		for _, f := range cluster {
			ep := &tableSink{}
			tab.put(f, ep)
			ref[f] = ep
		}
	}

	// Unknown flows: absent from a populated table and from an empty one.
	tab.del(12345)
	checkTable(t, &tab, ref)
	var empty flowTable
	empty.del(1)
	if empty.get(1) != nil {
		t.Fatal("lookup in an empty table found something")
	}
}

// reserve grows the table once to the least power of two that holds the
// reserved flows at most half full, keeps what it held, and a put into
// reserved room does not regrow it.
func TestFlowTableReserve(t *testing.T) {
	var tab flowTable
	tab.reserve(0)
	if tab.slots != nil {
		t.Fatalf("reserving nothing made %d slots", len(tab.slots))
	}
	ref := map[FlowID]Endpoint{}
	for f := FlowID(1); f <= 3; f++ {
		ref[f] = &tableSink{}
		tab.put(f, ref[f])
	}
	tab.reserve(6) // 9 flows need 18 slots: 32
	if len(tab.slots) != 32 {
		t.Fatalf("reserve(6) over 3 flows made %d slots, want 32", len(tab.slots))
	}
	checkTable(t, &tab, ref)
	slots := &tab.slots[0]
	for f := FlowID(4); f <= 9; f++ {
		ref[f] = &tableSink{}
		tab.put(f, ref[f])
	}
	if &tab.slots[0] != slots {
		t.Fatal("puts into reserved room regrew the table")
	}
	checkTable(t, &tab, ref)
	tab.reserve(7) // 16 flows fit in 32 slots already
	if &tab.slots[0] != slots {
		t.Fatal("a reserve that fits regrew the table")
	}
}

// What Host promises on top of the table: duplicate and nil registrations
// panic, a packet for an unknown or negative flow is counted, and an
// endpoint may unregister itself — and register its successor — from
// inside Deliver.
func TestHostDemuxContract(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	h := n.AddHost("h")

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	h.Register(7, &tableSink{})
	mustPanic("duplicate Register", func() { h.Register(7, &tableSink{}) })
	mustPanic("nil Register", func() { h.Register(8, nil) })

	neg := &tableSink{}
	h.Register(-1, neg)
	h.Receive(&Packet{Flow: -1})
	h.Receive(&Packet{Flow: -2})
	h.Receive(&Packet{Flow: 99})
	if neg.delivered != 1 || h.DroppedNoFlow() != 2 {
		t.Fatalf("negative-id flow delivered %d (want 1), DroppedNoFlow %d (want 2)", neg.delivered, h.DroppedNoFlow())
	}

	next := &tableSink{}
	h.Register(20, endpointFunc(func(*Packet) {
		h.Unregister(20)
		for f := FlowID(100); f < 140; f++ { // force a rehash mid-Deliver
			h.Register(f, next)
		}
	}))
	h.Receive(&Packet{Flow: 20})
	h.Receive(&Packet{Flow: 20})
	h.Receive(&Packet{Flow: 120})
	if h.DroppedNoFlow() != 3 || next.delivered != 1 {
		t.Fatalf("after self-unregister: DroppedNoFlow %d (want 3), successor delivered %d (want 1)", h.DroppedNoFlow(), next.delivered)
	}
	h.Unregister(20) // absent: a no-op
	h.Unregister(7)
	h.Register(7, next) // a retired id may be registered again
}

type endpointFunc func(*Packet)

func (f endpointFunc) Deliver(p *Packet) { f(p) }

// opener is a listener that opens a tableSink for even flows and refuses
// odd ones, counting how often it is asked.
type opener struct {
	asked  int
	opened map[FlowID]*tableSink
}

func (o *opener) accept(h *Host, pkt *Packet) Endpoint {
	o.asked++
	if pkt.Flow%2 != 0 {
		return nil
	}
	ep := &tableSink{}
	h.Register(pkt.Flow, ep)
	o.opened[pkt.Flow] = ep
	return ep
}

// A host's listener is asked only on a table miss: what it opens receives
// the packet that opened it and every later one through the table, what
// it refuses is counted as any unknown flow is, and a registered flow
// never reaches it. A host carries one listener: a second one panics with
// a netsim: message until the first is cleared.
func TestHostListener(t *testing.T) {
	h := NewNetwork(sim.NewEngine(1)).AddHost("h")
	known := &tableSink{}
	h.Register(3, known)
	l := &opener{opened: map[FlowID]*tableSink{}}
	h.Listen(l.accept)

	for _, flow := range []FlowID{2, 2, 5, 3, 2, 5} {
		h.Receive(&Packet{Flow: flow})
	}
	if l.asked != 3 {
		t.Fatalf("listener asked %d times, want 3 (flow 2 once, flow 5 twice)", l.asked)
	}
	if got := l.opened[2]; got == nil || got.delivered != 3 {
		t.Fatalf("opened endpoint %v, want flow 2's with all 3 of its packets", got)
	}
	if known.delivered != 1 || h.DroppedNoFlow() != 2 {
		t.Fatalf("registered flow delivered %d (want 1), DroppedNoFlow %d (want 2)", known.delivered, h.DroppedNoFlow())
	}

	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "netsim: ") {
				t.Fatalf("second listener: panic %q, want a netsim: message", msg)
			}
		}()
		h.Listen((&opener{}).accept)
	}()

	h.Listen(nil)
	h.Receive(&Packet{Flow: 4})
	if l.asked != 3 || h.DroppedNoFlow() != 3 {
		t.Fatalf("cleared listener asked %d times (want 3), DroppedNoFlow %d (want 3)", l.asked, h.DroppedNoFlow())
	}
	h.Listen(l.accept) // a cleared host takes a listener again
}

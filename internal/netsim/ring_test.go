package netsim

import (
	"math/rand"
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// TestPktRingMatchesSliceModel drives random push/pop/at
// sequences on a zero-value ring against a plain slice. The ring must
// grow 0 → 8 → 64 → 128 slots: the first push makes ringFirstCap, the
// first growth skips to ringBusyCap, and later ones double. Pushes
// outweigh pops in some phases and pops outweigh pushes in others, so
// the ring grows from empty, wraps its head around the buffer, drains to
// empty and grows again from a wrapped state. Freed slots must be cleared, so
// a queue never keeps a departed packet alive.
func TestPktRingMatchesSliceModel(t *testing.T) {
	pkts := make([]Packet, 512)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed)) //dtlint:allow nondeterm: test-local stream, seeded per case
		var r pktRing
		var model []*Packet
		sizes := []int{0}
		wrapped := false
		for step := 0; step < 4000; step++ {
			pushBias := 0.7
			if (step/500)%2 == 1 {
				pushBias = 0.3
			}
			switch op := rng.Float64(); {
			case op < pushBias || len(model) == 0:
				p := &pkts[rng.Intn(len(pkts))]
				r.push(p)
				model = append(model, p)
				if len(r.buf) != sizes[len(sizes)-1] {
					sizes = append(sizes, len(r.buf))
				}
			default:
				if got, want := r.pop(), model[0]; got != want {
					t.Fatalf("seed %d step %d: pop = %p, model %p", seed, step, got, want)
				}
				model = model[1:]
			}
			if r.len() != len(model) {
				t.Fatalf("seed %d step %d: len = %d, model %d", seed, step, r.len(), len(model))
			}
			if r.head+r.n > len(r.buf) {
				wrapped = true
			}
			for i, want := range model {
				if got := r.at(i); got != want {
					t.Fatalf("seed %d step %d: at(%d) = %p, model %p", seed, step, i, got, want)
				}
			}
			// A slot outside the live window must not pin a packet.
			for j, p := range r.buf {
				if (j-r.head)&(len(r.buf)-1) >= r.n && p != nil {
					t.Fatalf("seed %d step %d: free slot %d still holds a packet", seed, step, j)
				}
			}
		}
		if len(sizes) < 4 || sizes[1] != 8 || sizes[2] != 64 || sizes[3] != 128 {
			t.Fatalf("seed %d: ring sizes %v, want 0 → 8 → 64 → 128 first", seed, sizes)
		}
		for i := 4; i < len(sizes); i++ {
			if sizes[i] != 2*sizes[i-1] {
				t.Fatalf("seed %d: ring sizes %v: growth past 128 must double", seed, sizes)
			}
		}
		if !wrapped {
			t.Fatalf("seed %d: the head never wrapped; the sequence missed a case", seed)
		}
	}
}

// TestRingSizedByOccupancy drives the rule through a real port. A host
// that never holds more than 8 packets behind the one on the wire keeps
// the 8-slot ring its first enqueue made; the first push past 8 moves it
// straight to 64. The switch port behind it, fed at the same rate, never
// holds more than one. A host that terminates one flow keeps a 2-slot
// flow table.
func TestRingSizedByOccupancy(t *testing.T) {
	e := sim.NewEngine(1)
	_, a, b, sw := buildPair(t, e, linkCfg(Gbps, 10*time.Microsecond, 1000, nil))
	rx := &sink{}
	b.Register(1, rx)
	if got := len(b.endpoints.slots); got != 2 {
		t.Fatalf("a host with one flow holds a %d-slot table, want 2", got)
	}
	burst := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			a.Send(&Packet{Flow: 1, Dst: b.ID(), Size: pktSize})
		}
	}
	burst(9) // one on the wire, 8 queued
	if got := a.Uplink().RingSlots(); got != 8 {
		t.Fatalf("after 8 queued packets the host ring holds %d slots, want 8", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	burst(10) // one on the wire, 9 queued
	if got := a.Uplink().RingSlots(); got != 64 {
		t.Fatalf("after 9 queued packets the host ring holds %d slots, want 64", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rx.pkts) != 19 {
		t.Fatalf("delivered %d packets, want 19", len(rx.pkts))
	}
	toB := sw.Port(1) // b was connected second
	if toB.Peer() != Node(b) {
		t.Fatal("switch port 1 does not lead to b")
	}
	if got := toB.RingSlots(); got != 8 {
		t.Fatalf("the switch port towards b holds a %d-slot ring, want 8", got)
	}
}

package netsim

import (
	"math/rand"
	"testing"
)

// TestPktRingMatchesSliceModel drives random push/pop/popTail/at
// sequences on a zero-value ring, which the first push sizes to
// ringInitialCap, against a plain slice. Pushes outweigh
// pops in some phases and pops outweigh pushes in others, so the ring
// grows from empty, wraps its head around the buffer, drains to empty
// and grows again from a wrapped state. Freed slots must be cleared, so
// a queue never keeps a departed packet alive.
func TestPktRingMatchesSliceModel(t *testing.T) {
	pkts := make([]Packet, 512)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed)) //dtlint:allow nondeterm: test-local stream, seeded per case
		var r pktRing
		var model []*Packet
		grew, wrapped := false, false
		for step := 0; step < 4000; step++ {
			pushBias := 0.7
			if (step/500)%2 == 1 {
				pushBias = 0.3
			}
			switch op := rng.Float64(); {
			case op < pushBias || len(model) == 0:
				p := &pkts[rng.Intn(len(pkts))]
				if r.n == len(r.buf) {
					grew = true
				}
				r.push(p)
				model = append(model, p)
				if step == 0 && len(r.buf) != ringInitialCap {
					t.Fatalf("seed %d: first push sized the zero ring to %d slots, want %d", seed, len(r.buf), ringInitialCap)
				}
			case op < pushBias+(1-pushBias)/2:
				if got, want := r.pop(), model[0]; got != want {
					t.Fatalf("seed %d step %d: pop = %p, model %p", seed, step, got, want)
				}
				model = model[1:]
			default:
				if got, want := r.popTail(), model[len(model)-1]; got != want {
					t.Fatalf("seed %d step %d: popTail = %p, model %p", seed, step, got, want)
				}
				model = model[:len(model)-1]
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
		if !grew || !wrapped {
			t.Fatalf("seed %d: grew=%v wrapped=%v; the sequence missed a case", seed, grew, wrapped)
		}
	}
}

package netsim

import "dtdctcp/internal/invariant"

// packetPool is a free list of Packets owned by one Network. Transport
// endpoints allocate from it and the network recycles a packet at its
// single terminal point — delivery to an endpoint or a drop — so the
// steady-state data path reuses a small working set of packets instead
// of allocating one per segment.
//
// Only packets born from the pool are ever recycled: a Packet built with
// a plain composite literal (tests, examples) passes through the free
// hooks untouched, which keeps the pool opt-in and the old construction
// style valid.
type packetPool struct {
	free []*Packet
	// made counts the packets the pool has created, all on the miss path,
	// so made − len(free) is the number out in the network; see
	// Network.LivePackets.
	made int
}

//dtlint:hotpath
func (pp *packetPool) get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		p.freed = false
		return p
	}
	pp.made++
	//dtlint:allow hotalloc: pool miss is the cold path; steady state is all free-list hits
	return &Packet{pooled: true}
}

//dtlint:hotpath
func (pp *packetPool) put(p *Packet) {
	if p == nil || !p.pooled || p.freed {
		if invariant.Enabled && p != nil && p.pooled {
			//dtlint:allow hotalloc: assertion boxing is build-tag gated; alloc tests skip under -tags invariants
			invariant.Assert(!p.freed, "netsim: double free of pooled packet %v", p)
		}
		return
	}
	*p = Packet{pooled: true, freed: true}
	//dtlint:allow hotalloc: the free list retains capacity; growth is amortized across the warm-up
	pp.free = append(pp.free, p)
}

// AllocPacket returns a zeroed packet from the network's free list. The
// caller sets its fields and hands it to a Host or Port; the network
// recycles it when it is delivered or dropped. After that point the
// packet must not be touched — endpoints that need data past Deliver
// must copy it out.
//
//dtlint:hotpath
func (n *Network) AllocPacket() *Packet { return n.pool.get() }

// FreePacket returns a pooled packet to the free list; packets not born
// from AllocPacket are ignored. Model code rarely calls this directly —
// the network frees at delivery and drop points — but a producer that
// allocated a packet and then decided not to send it must give it back.
//
//dtlint:hotpath
func (n *Network) FreePacket(p *Packet) { n.pool.put(p) }

// LivePackets reports how many packets born from AllocPacket have not come
// back to the free list: those queued, in flight or held by an endpoint.
// Once a finite workload has drained (Engine.Run returned with nothing
// pending) every packet has reached delivery or a drop, so a nonzero count
// is a packet some path forgot to free.
func (n *Network) LivePackets() int { return n.pool.made - len(n.pool.free) }

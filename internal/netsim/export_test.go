package netsim

// Hooks for the external test package, which — unlike this one — can
// import internal/topo and so check forwarding on the real fabrics.

// Egress is Switch.egress.
func (s *Switch) Egress(pkt *Packet) (int, bool) { return s.egress(pkt) }

// ECMPHash is ecmpHash.
func ECMPHash(salt, swID, flow uint64) uint64 { return ecmpHash(salt, swID, flow) }

// ECMPSets is the number of ECMP sets the switch has interned.
func (s *Switch) ECMPSets() int { return len(s.sets) }

// RingSlots is the size of the port's queue buffer, 0 before its first
// enqueue.
func (p *Port) RingSlots() int { return len(p.queue.buf) }

// SrcKey is the domain index the port ships its deliveries under, -1
// before routes are computed.
func (p *Port) SrcKey() int { return int(p.srcKey) }

package netsim

import (
	"fmt"
	"time"

	"dtdctcp/internal/sim"
)

// This file cuts a Network into shard domains for parallel single-run
// execution on a sim.ShardedEngine.
//
// The domain decomposition is fixed and independent of the shard count:
// every host (together with its uplink port) is one domain, and every
// switch port is one domain of its own. Domains are numbered
// deterministically — hosts in creation order, then switch ports in
// switch-creation × port-attachment order — and an assignment maps each
// domain to a shard. Every link delivery is an event keyed
// (at, schedAt, srcKey=domain, srcSeq), serial or partitioned, and that
// key orders keyed events totally before an engine's own sequence
// numbers are consulted. So a delivery may reach its destination either
// way — scheduled directly when source and destination share a shard,
// through the barrier mailbox when they do not — and results stay
// byte-identical across shard counts and assignment permutations; only
// sequence numbers, which nothing observable reads, depend on the
// grouping. The coordinator's lookahead is therefore the shortest link
// that can deliver to another shard, not the shortest link.
//
// The switch hop is resolved at the source: the shipping port looks up
// the egress port in the peer switch's static routing table (read-only
// after ComputeRoutes, so concurrent readers are safe) and targets the
// egress domain directly with the egress port's Send. A serial run
// performs the identical lookup inside Switch.Receive at the same
// virtual instant.

// NumDomains returns the number of shard domains the topology cuts
// into: one per host plus one per switch port.
func (n *Network) NumDomains() int {
	d := len(n.hosts)
	for _, s := range n.switches {
		d += len(s.ports)
	}
	return d
}

// HostDomain returns the domain index of a host (also the domain of its
// uplink port).
func (n *Network) HostDomain(h *Host) int {
	for i, cand := range n.hosts {
		if cand == h {
			return i
		}
	}
	panic("netsim: host not in this network")
}

// PortDomain returns the domain index of a switch port. Host uplinks
// share their host's domain; pass those to HostDomain instead.
func (n *Network) PortDomain(p *Port) int {
	d := len(n.hosts)
	for _, s := range n.switches {
		for _, cand := range s.ports {
			if cand == p {
				return d
			}
			d++
		}
	}
	panic("netsim: port is not a switch port of this network")
}

// DefaultAssign builds the deterministic domain→shard assignment, which
// keeps each hop of a path next to the previous one. Hosts take shards in
// contiguous creation-order blocks. A breadth-first wave from all hosts
// labels every node with its hop depth and with the shard of the host
// whose wave reached it first; a switch port lives where the end of its
// link nearer the hosts does (its own switch on a tie). On a fat-tree
// that is a pod, and the core ports facing it, per shard; on a leaf-spine
// a group of leaves; on a star each host with the switch port facing it.
// The listed pinned domains go to shard 0 (the shard whose RNG stream
// equals the serial engine's — pin every domain that draws from the root
// source at runtime, such as a port with a randomized AQM policy).
func (n *Network) DefaultAssign(shards int, pinned ...int) []int {
	depth := make([]int, len(n.nodes))
	home := make([]int, len(n.nodes))
	for i := range depth {
		depth[i] = len(n.nodes) // unreached: deeper than any wave gets
	}
	wave := make([]NodeID, 0, len(n.nodes))
	for i, h := range n.hosts {
		depth[h.id], home[h.id] = 0, i*shards/len(n.hosts)
		wave = append(wave, h.id)
	}
	for ; len(wave) > 0; wave = wave[1:] {
		for _, nb := range n.adjacency[wave[0]] {
			if depth[nb] == len(n.nodes) {
				depth[nb], home[nb] = depth[wave[0]]+1, home[wave[0]]
				wave = append(wave, nb)
			}
		}
	}
	assign := make([]int, 0, n.NumDomains())
	for _, h := range n.hosts {
		assign = append(assign, home[h.id])
	}
	for _, s := range n.switches {
		for _, p := range s.ports {
			end := s.id
			if peer := p.peer.ID(); depth[peer] < depth[end] {
				end = peer
			}
			assign = append(assign, home[end])
		}
	}
	for _, d := range pinned {
		assign[d] = 0
	}
	return assign
}

// Partition binds every domain of the topology to its assigned shard of
// the coordinator: engines, packet pools, outboxes, and stable source
// keys. Call it after ComputeRoutes (the source-side egress resolution
// reads the routing tables) and before constructing endpoints (they bind
// to Host.Engine at construction). The coordinator's lookahead is set to
// the minimum delay over links that can deliver to another shard, and a
// barrier hook is registered to level the per-shard packet free lists
// between epochs.
func (n *Network) Partition(se *sim.ShardedEngine, assign []int) error {
	if n.se != nil {
		return fmt.Errorf("netsim: network already partitioned")
	}
	if got, want := len(assign), n.NumDomains(); got != want {
		return fmt.Errorf("netsim: assignment covers %d domains, topology has %d", got, want)
	}
	for d, s := range assign {
		if s < 0 || s >= se.NumShards() {
			return fmt.Errorf("netsim: domain %d assigned to shard %d, engine has %d", d, s, se.NumShards())
		}
	}
	// Label every host and port with its shard (inert until n.se is set)
	// and list the ports in domain order; the checks below read both.
	n.stampDomains()
	var ports []*Port
	for d, h := range n.hosts {
		h.shard = assign[d]
		if h.uplink != nil {
			ports = append(ports, h.uplink)
		}
	}
	for _, s := range n.switches {
		ports = append(ports, s.ports...)
	}
	for _, p := range ports {
		p.shard = assign[p.srcKey]
	}
	// Shared-buffer pools are a single mutable counter touched on every
	// member enqueue/dequeue; the accounting is only race-free when all
	// members execute on one shard. The lookahead is the shortest link
	// that crosses shards — or, when none does and any window is safe,
	// the shortest link.
	poolShard := make(map[*SharedBuffer]int)
	cross, all := time.Duration(-1), time.Duration(-1)
	for _, p := range ports {
		if p.shared != nil {
			if want, seen := poolShard[p.shared]; seen && p.shard != want {
				return fmt.Errorf("netsim: shared-buffer pool split across shards %d and %d; assign all member ports to one shard (pin their domains)",
					want, p.shard)
			}
			poolShard[p.shared] = p.shard
		}
		if all < 0 || p.delay < all {
			all = p.delay
		}
		if p.offShard = p.shipsOffShard(); p.offShard && (cross < 0 || p.delay < cross) {
			cross = p.delay
		}
	}
	if cross < 0 {
		cross = all
	}
	if cross <= 0 {
		return fmt.Errorf("netsim: sharded execution requires positive delays on links that cross shards (lookahead)")
	}
	n.se = se
	n.shardPools = make([]packetPool, se.NumShards())

	for _, h := range n.hosts {
		h.engine = se.Shard(h.shard)
		h.pool = &n.shardPools[h.shard]
	}
	for _, p := range ports {
		p.bindShard(se, &n.shardPools[p.shard])
	}
	for _, s := range n.switches {
		if len(s.ports) == 0 {
			continue
		}
		first := s.ports[0]
		s.noRouteShard = first.shard
		sw, pool := s, first.pool
		s.noRouteFn = func(arg any) {
			sw.droppedNoRoute++
			pool.put(arg.(*Packet))
		}
	}
	se.SetLookahead(sim.FromDuration(cross))
	se.AddBarrierHook(n.rebalancePools)
	return nil
}

// Sharded reports whether the network has been partitioned.
func (n *Network) Sharded() bool { return n.se != nil }

// rebalanceSlack is the per-pool surplus tolerated before the barrier
// hook levels free lists. Data flows drain packets from sender shards
// into receiver shards; without rebalancing the receiving pool grows
// while the senders allocate fresh packets forever.
const rebalanceSlack = 32

// rebalancePools levels the shard packet pools toward the mean free-list
// size. It runs in coordinator context at epoch barriers, when no shard
// goroutine is active, so plain slice surgery is safe.
func (n *Network) rebalancePools() {
	total := 0
	for i := range n.shardPools {
		total += len(n.shardPools[i].free)
	}
	mean := total / len(n.shardPools)
	for i := range n.shardPools {
		free := n.shardPools[i].free
		for len(free) > mean+rebalanceSlack {
			k := len(free) - 1
			n.spares = append(n.spares, free[k])
			free[k] = nil
			free = free[:k]
		}
		n.shardPools[i].free = free
	}
	for i := range n.shardPools {
		if len(n.spares) == 0 {
			break
		}
		free := n.shardPools[i].free
		for len(n.spares) > 0 && len(free) < mean {
			k := len(n.spares) - 1
			free = append(free, n.spares[k])
			n.spares[k] = nil
			n.spares = n.spares[:k]
		}
		n.shardPools[i].free = free
	}
}

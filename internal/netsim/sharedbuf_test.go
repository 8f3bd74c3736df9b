package netsim

import (
	"testing"
	"time"

	"dtdctcp/internal/sim"
)

// sharedStar wires nDst destination hosts behind one switch, each egress
// port running at bneck, fed by one source host per destination on access
// links. When pool is non-nil the switch egress ports join it.
type sharedStar struct {
	engine *sim.Engine
	net    *Network
	srcs   []*Host
	dsts   []*Host
	sw     *Switch
	egress []*Port
	pool   *SharedBuffer
}

func newSharedStar(t testing.TB, nDst int, access, bneck Rate, staticPkts int, pool *SharedBuffer) *sharedStar {
	t.Helper()
	e := sim.NewEngine(1)
	n := NewNetwork(e)
	sw := n.AddSwitch("sw")
	st := &sharedStar{engine: e, net: n, sw: sw, pool: pool}
	acc := PortConfig{Rate: access, Delay: 10 * time.Microsecond, Buffer: 1 << 20}
	bn := PortConfig{Rate: bneck, Delay: 10 * time.Microsecond, Buffer: staticPkts * pktSize}
	for i := 0; i < nDst; i++ {
		src := n.AddHost("src")
		dst := n.AddHost("dst")
		if err := n.Connect(src, sw, acc, acc); err != nil {
			t.Fatal(err)
		}
		if err := n.Connect(dst, sw, acc, bn); err != nil {
			t.Fatal(err)
		}
		st.srcs = append(st.srcs, src)
		st.dsts = append(st.dsts, dst)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	for _, d := range st.dsts {
		st.egress = append(st.egress, sw.PortTo(d.ID()))
	}
	if pool != nil {
		if err := pool.Attach(st.egress...); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// offer injects one packet directly at egress port i, bypassing the access
// leg so tests control arrival order exactly.
func (st *sharedStar) offer(i int) {
	pkt := st.net.AllocPacket()
	pkt.Flow = FlowID(i + 1)
	pkt.Dst = st.dsts[i].ID()
	pkt.Size = pktSize
	st.egress[i].Send(pkt)
}

func TestSharedBufferConstruction(t *testing.T) {
	if _, err := NewSharedBuffer(0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewSharedBuffer(-5, 1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewSharedBuffer(1500, 0); err == nil {
		t.Fatal("zero alpha accepted")
	}
	if _, err := NewSharedBuffer(1500, -2); err == nil {
		t.Fatal("negative alpha accepted")
	}
	sb, err := NewSharedBuffer(100*pktSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sb.total != 100*pktSize || sb.alpha != 2 || sb.used != 0 {
		t.Fatalf("fields: total=%d alpha=%g used=%d", sb.total, sb.alpha, sb.used)
	}
	// Empty pool: the allowance α·B is 200 packets, and no single arrival
	// may exceed the 100 free ones.
	if !sb.admit(199*pktSize, pktSize) || sb.admit(200*pktSize, pktSize) || sb.admit(0, 101*pktSize) {
		t.Fatal("empty-pool admission does not follow T = α·(B − ΣQ)")
	}
}

func TestSharedBufferAttachRejections(t *testing.T) {
	st := newSharedStar(t, 2, 10*Gbps, Gbps, 64, nil)
	sb, _ := NewSharedBuffer(100*pktSize, 2)
	if err := sb.Attach(st.egress[0]); err != nil {
		t.Fatal(err)
	}
	// Double membership, same or different pool.
	if err := sb.Attach(st.egress[0]); err == nil {
		t.Fatal("double attach accepted")
	}
	other, _ := NewSharedBuffer(100*pktSize, 2)
	if err := other.Attach(st.egress[0]); err == nil {
		t.Fatal("attach to second pool accepted")
	}
	// Non-empty queue: park a packet on egress[1] first.
	st.offer(1)
	st.offer(1) // first is in serialization, second queues
	if st.egress[1].QueueLen() == 0 {
		t.Fatal("setup: expected a queued packet")
	}
	if err := other.Attach(st.egress[1]); err == nil {
		t.Fatal("attach with queued bytes accepted")
	}
}

// The uncontended single-port limit: a pool with one member and an α large
// enough that the allowance never binds must behave packet-for-packet like
// the static per-port tail-drop buffer it replaces.
func TestSharedBufferSinglePortEqualsTailDrop(t *testing.T) {
	const bufPkts = 16
	run := func(pool *SharedBuffer) PortStats {
		st := newSharedStar(t, 1, 10*Gbps, 100*Mbps, bufPkts, nil)
		if pool != nil {
			if err := pool.Attach(st.egress[0]); err != nil {
				t.Fatal(err)
			}
		}
		// Three bursts past capacity with partial drains between them.
		for burst := 0; burst < 3; burst++ {
			for i := 0; i < 2*bufPkts; i++ {
				st.offer(0)
			}
			st.engine.RunUntil(st.engine.Now().Add(time.Duration(burst+1) * time.Millisecond))
		}
		if err := st.engine.Run(); err != nil {
			t.Fatal(err)
		}
		return st.egress[0].Stats()
	}
	static := run(nil)
	sb, _ := NewSharedBuffer(bufPkts*pktSize, 1e12)
	pooled := run(sb)
	if static != pooled {
		t.Fatalf("single-port pooled stats diverged from tail-drop:\nstatic: %+v\npooled: %+v", static, pooled)
	}
	if static.DroppedOverflow == 0 {
		t.Fatal("vacuous: bursts never overflowed the buffer")
	}
	if sb.used != 0 {
		t.Fatalf("pool occupancy %d after full drain", sb.used)
	}
}

// Property: the pool conserves bytes — at every enqueue/dequeue the counter
// equals the sum of member occupancies and never exceeds capacity.
func TestPropertySharedBufferConservation(t *testing.T) {
	const poolPkts = 32
	sb, _ := NewSharedBuffer(poolPkts*pktSize, 2)
	st := newSharedStar(t, 4, 10*Gbps, 50*Mbps, 64, sb)
	check := func(when string) {
		t.Helper()
		sum := 0
		for _, p := range st.egress {
			sum += p.QueueLen()
		}
		if sb.used != sum {
			t.Fatalf("%s: pool counter %d, member queues hold %d", when, sb.used, sum)
		}
		if sb.used < 0 || sb.used > sb.total {
			t.Fatalf("%s: pool occupancy %d outside [0, %d]", when, sb.used, sb.total)
		}
	}
	// Uneven offered load: port i gets i+1 packets per round.
	for round := 0; round < 40; round++ {
		for i := range st.egress {
			for k := 0; k <= i; k++ {
				st.offer(i)
			}
			check("after arrivals")
		}
		st.engine.RunUntil(st.engine.Now().Add(200 * time.Microsecond))
		check("after partial drain")
	}
	if err := st.engine.Run(); err != nil {
		t.Fatal(err)
	}
	check("after full drain")
	if sb.used != 0 {
		t.Fatalf("drained pool still holds %d bytes", sb.used)
	}
	dropped := uint64(0)
	for _, p := range st.egress {
		dropped += p.Stats().DroppedOverflow
	}
	if dropped == 0 {
		t.Fatal("vacuous: offered load never hit the dynamic threshold")
	}
}

// Property: as α → ∞ dynamic thresholding degenerates to a static equal
// split. Round-robin-filling N member ports with the link stopped lands
// each at the congested fixed point T = αB/(1+αN) → B/N.
func TestPropertySharedBufferAlphaInfinityStaticSplit(t *testing.T) {
	const nPorts, poolPkts = 4, 64
	sb, _ := NewSharedBuffer(poolPkts*pktSize, 1e9)
	st := newSharedStar(t, nPorts, 10*Gbps, Mbps, 64, sb)
	// Round-robin arrivals, no engine time passing: pure fill. Each port
	// immediately pulls its first packet into serialization, which leaves
	// the queue, so offer one extra round before measuring.
	for round := 0; round < 2*poolPkts; round++ {
		for i := range st.egress {
			st.offer(i)
		}
	}
	want := poolPkts / nPorts * pktSize // B/N in bytes
	for i, p := range st.egress {
		got := p.QueueLen()
		// One packet per port is in serialization (off-queue), and the
		// fixed point rounds to whole packets: allow two packets of slack.
		if got < want-2*pktSize || got > want+2*pktSize {
			t.Fatalf("port %d settled at %d bytes, want ≈ %d (B/N)", i, got, want)
		}
	}
	if sb.used > sb.total {
		t.Fatalf("pool overcommitted: %d > %d", sb.used, sb.total)
	}
	if err := st.engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// Small α is a conservative carve-up: with α = 1/N the congested fixed
// point keeps the pool at most half full even under saturation.
func TestSharedBufferSmallAlphaLeavesHeadroom(t *testing.T) {
	const nPorts, poolPkts = 4, 64
	sb, _ := NewSharedBuffer(poolPkts*pktSize, 1.0/nPorts)
	st := newSharedStar(t, nPorts, 10*Gbps, Mbps, 64, sb)
	for round := 0; round < 2*poolPkts; round++ {
		for i := range st.egress {
			st.offer(i)
		}
	}
	// Fixed point: N·T = N·αB/(1+αN) = B/2 at α = 1/N.
	if sb.used > sb.total/2+nPorts*pktSize {
		t.Fatalf("α=1/N pool filled to %d of %d, want ≈ half", sb.used, sb.total)
	}
	if sb.used == 0 {
		t.Fatal("vacuous: nothing queued")
	}
	if err := st.engine.Run(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSharedBufferConfig drives arbitrary pool configurations and
// arrival/drain traces through a two-port pooled switch: construction must
// reject only non-positive parameters, and any accepted configuration must
// conserve bytes (ΣQ = Used ≤ Total) at every step and drain to empty.
func FuzzSharedBufferConfig(f *testing.F) {
	f.Add(64, 2000, []byte{0, 0, 1, 2, 3, 4, 255, 254})      // α=2.0, mixed trace
	f.Add(1, 1, []byte{0, 1})                                // minimal pool, crawling α
	f.Add(64, 1_000_000_000, []byte{0, 0, 0, 0, 1, 1, 1, 1}) // α→∞
	f.Add(8, 250, []byte{0, 2, 4, 6, 8, 10, 1, 3, 5})        // conservative α=0.25
	f.Fuzz(func(t *testing.T, poolPkts int, alphaMilli int, ops []byte) {
		if poolPkts < 0 {
			poolPkts = -poolPkts
		}
		poolPkts = poolPkts%256 + 1
		if alphaMilli < 0 {
			alphaMilli = -alphaMilli
		}
		alphaMilli = alphaMilli%2_000_000_000 + 1
		alpha := float64(alphaMilli) / 1000
		sb, err := NewSharedBuffer(poolPkts*pktSize, alpha)
		if err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
		st := newSharedStar(t, 2, 10*Gbps, 50*Mbps, 512, sb)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				st.offer(int(op) % 2)
			default:
				st.engine.RunUntil(st.engine.Now().Add(time.Duration(op) * time.Microsecond))
			}
			sum := 0
			for _, p := range st.egress {
				sum += p.QueueLen()
			}
			if sb.used != sum || sb.used < 0 || sb.used > sb.total {
				t.Fatalf("pool counter %d, members %d, capacity %d", sb.used, sum, sb.total)
			}
		}
		if err := st.engine.Run(); err != nil {
			t.Fatal(err)
		}
		if sb.used != 0 {
			t.Fatalf("pool holds %d bytes after full drain", sb.used)
		}
	})
}

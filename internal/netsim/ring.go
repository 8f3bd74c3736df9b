package netsim

// pktRing is a FIFO of packets over a power-of-two circular buffer. The
// previous slice-based queue shifted every remaining element on dequeue
// (O(n) copy per packet, quadratic under deep queues — exactly the
// regime the paper's oscillation experiments spend their time in); the
// ring dequeues in O(1) and only allocates when the occupancy exceeds
// every level seen before. The zero ring is empty and holds no buffer:
// most ports of a large topology never queue, so the first push sizes
// it, through the same full-ring check that grows it later.
type pktRing struct {
	buf  []*Packet // len(buf) is always a power of two
	head int       // index of the oldest element
	n    int       // occupancy
}

// A ring is sized by what it is seen to hold. The first push makes
// ringFirstCap slots: a host NIC whose ACK-clocked window releases a
// few packets at a time, as a dumbbell sender's does, never needs more
// and keeps 64 B instead of 512 B. A ring that outgrows them is a busy
// port, so it skips straight to ringBusyCap and doubles from there: a
// fabric port pays the small buffer once and then grows as if it had
// started at ringBusyCap, instead of re-growing through every size in
// between (at a first size of 16 or 32, k = 4 fat-tree runs allocated
// more than with 64).
const (
	ringFirstCap = 8
	ringBusyCap  = 64
)

//dtlint:hotpath
func (r *pktRing) len() int { return r.n }

//dtlint:hotpath
func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

//dtlint:hotpath
func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// at returns the i-th element in FIFO order without removing it.
//
//dtlint:hotpath
func (r *pktRing) at(i int) *Packet {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *pktRing) grow() {
	var capNew int
	switch len(r.buf) {
	case 0:
		capNew = ringFirstCap
	case ringFirstCap:
		capNew = ringBusyCap
	default:
		capNew = 2 * len(r.buf)
	}
	buf := make([]*Packet, capNew)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf = buf
	r.head = 0
}

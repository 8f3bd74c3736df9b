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

// ringInitialCap is the buffer a ring gets at its first push. A smaller
// one saves memory on ports that queue a few packets at a time but makes
// every busy port re-grow through the small sizes: at 32 a k = 4
// fat-tree run allocates more in all than with 64-slot rings made up
// front, at 64 no run does.
const ringInitialCap = 64

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

// popTail removes and returns the most recently pushed element. It is the
// other end of the FIFO, used when a buffer resize must discard the
// newest arrivals first.
//
//dtlint:hotpath
func (r *pktRing) popTail() *Packet {
	r.n--
	i := (r.head + r.n) & (len(r.buf) - 1)
	p := r.buf[i]
	r.buf[i] = nil
	return p
}

// at returns the i-th element in FIFO order without removing it.
//
//dtlint:hotpath
func (r *pktRing) at(i int) *Packet {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *pktRing) grow() {
	capNew := 2 * len(r.buf)
	if capNew < ringInitialCap {
		capNew = ringInitialCap
	}
	buf := make([]*Packet, capNew)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf = buf
	r.head = 0
}

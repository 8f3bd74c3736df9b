package sim

import "math"

// Event is a unit of scheduled work, owned and recycled by its Engine.
// Events are compared by firing time, then by the virtual instant they
// were scheduled, then by source key, then by sequence number, so two
// events scheduled for the same instant always run in a deterministic
// order. This tie-break is what makes runs reproducible.
//
// For an engine scheduling only unkeyed events the scheduling instant and
// source key are redundant — they order exactly like (at, seq). The extra
// components order link deliveries: each carries the sending port's
// stable srcKey, so a same-instant tie between two domains' deliveries is
// decided by the topology, not by which event happened to schedule first,
// and a workload's arrivals carry the scheduling instant zero they were
// drawn at. Within one source key seq already orders deliveries as their
// source sent them: every key ≥ 0 belongs to one sender. The key was made
// for a sharded engine, since deleted; every digest is recorded under it,
// so shrinking it to (at, seq) changes tie order and every golden with it.
//
// Model code never touches an Event: it schedules through the Engine,
// which returns no handle, and cancels only by stopping a Timer. The
// fields fill one 64-byte cache line.
type Event struct {
	// at is the virtual instant the event fires.
	at Time
	// schedAt is the virtual instant the event was scheduled (TimeZero for
	// an injected event).
	schedAt Time
	seq     uint64
	// fn runs with arg as its argument. An event scheduled with a plain
	// func() carries it in arg and runFunc in fn, so hot paths with a
	// long-lived fn schedule without allocating a closure and the run loop
	// makes one call.
	fn  func(any)
	arg any
	// timer is set on a Timer's wake-up: the run loop finds the recorded
	// deadline through it, and recycling clears the timer's reference.
	timer *Timer
	// srcKey identifies the scheduling source for keyed events (a stable
	// topology domain index ≥ 0); unkeyed events carry unkeyedSrc, which
	// sorts before every domain so local events win exact (at, schedAt)
	// ties against deliveries.
	srcKey    int32
	cancelled bool
}

// runFunc is the callback of an event scheduled with a plain func(),
// which travels as its argument. A func value is pointer-shaped, so
// storing it in arg allocates nothing.
//
//dtlint:hotpath
func runFunc(arg any) { arg.(func())() }

// unkeyedSrc is the srcKey of events scheduled without a source
// identity. It sorts before every topology domain (all ≥ 0).
const unkeyedSrc = -1

// heapSlot is one entry of the pending-event queue, in the heap or in a
// lane. The firing instant sits inline so a sift, a lane's tail check and
// the scan for the earliest source compare instants without touching an
// Event; only an exact tie follows the pointer.
type heapSlot struct {
	at Time
	ev *Event
}

// eventHeap is a 4-ary min-heap of slots ordered by
// (at, schedAt, srcKey, seq): half the levels of a binary heap,
// a node's children adjacent in memory, and sifts that move a hole
// instead of swapping. Hand-rolled rather than container/heap to avoid
// interface boxing on the hot path (tens of millions of events per
// experiment sweep).
type eventHeap struct {
	items []heapSlot
}

//dtlint:hotpath
func (h *eventHeap) Len() int { return len(h.items) }

//dtlint:hotpath
func (h *eventHeap) less(x, y heapSlot) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	a, b := x.ev, y.ev
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.srcKey != b.srcKey {
		return a.srcKey < b.srcKey
	}
	return a.seq < b.seq
}

//dtlint:hotpath
func (h *eventHeap) push(s heapSlot) {
	//dtlint:allow hotalloc: backing array starts at initialHeapCap and is retained; growth is amortized warm-up
	h.items = append(h.items, heapSlot{})
	h.up(len(h.items)-1, s)
}

//dtlint:hotpath
func (h *eventHeap) pop() *Event {
	n := len(h.items) - 1
	e, last := h.items[0].ev, h.items[n]
	h.items[n] = heapSlot{}
	h.items = h.items[:n]
	if n > 0 {
		h.down(0, last)
	}
	return e
}

// up places s at or above the hole at index i.
//
//dtlint:hotpath
func (h *eventHeap) up(i int, s heapSlot) {
	items := h.items
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(s, items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = s
}

// down places s at or below the hole at index i.
//
//dtlint:hotpath
func (h *eventHeap) down(i int, s heapSlot) {
	items := h.items
	n := len(items)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h.less(items[c], items[best]) {
				best = c
			}
		}
		if !h.less(items[best], s) {
			break
		}
		items[i] = items[best]
		i = best
	}
	items[i] = s
}

// reheapify restores the heap property over the whole backing slice in
// O(n), used after compaction filters out cancelled events.
//
//dtlint:hotpath
func (h *eventHeap) reheapify() {
	// (n+2)/4 − 1 is the last slot with a child, and −1 when n < 2.
	for i := (len(h.items)+2)/4 - 1; i >= 0; i-- {
		h.down(i, h.items[i])
	}
}

// A lane is a FIFO ring of slots that is sorted under the full key: the
// engine appends a slot only if it sorts after the lane's tail, so the
// head is always the lane's earliest entry. A slot scheduled a constant
// delay ahead of a clock that never runs backwards arrives already in
// that order, which is why a lane per common delay takes nearly every
// event past the heap (see Engine.insert).
type lane struct {
	// buf is the ring, a power of two long; head and tail count slots ever
	// popped and ever appended, so the queued slots are buf[head&mask] up
	// to buf[(tail-1)&mask]. Slots outside that range are stale: the events
	// they point at are back on the free list, which is never shrunk, so
	// nothing is retained by leaving them.
	buf        []heapSlot
	head, tail uint
	// hits counts appends, for EngineStats.LaneHits.
	hits uint64
}

// laneEmpty is the cached head instant of an empty lane. No lane holds a
// slot that fires then (insert sends it to the heap), so the marker is
// unambiguous.
const laneEmpty Time = math.MaxInt64

// initialLaneCap is a new lane's ring in slots (512 B). A lane holds what
// is in flight at its delay — a dozen slots for a serialisation time, a
// bandwidth-delay product for a link — and doubles to fit.
const initialLaneCap = 32

//dtlint:hotpath
func (l *lane) len() int { return int(l.tail - l.head) }

// at returns the k-th queued slot, counting from the head.
//
//dtlint:hotpath
func (l *lane) at(k int) heapSlot { return l.buf[(l.head+uint(k))&uint(len(l.buf)-1)] }

// grow doubles a full ring, unwrapping it.
func (l *lane) grow() {
	n := l.len()
	buf := make([]heapSlot, 2*len(l.buf))
	for k := 0; k < n; k++ {
		buf[k] = l.at(k)
	}
	l.buf, l.head, l.tail = buf, 0, uint(n)
}

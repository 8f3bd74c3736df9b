package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dtdctcp/internal/invariant"
)

// ErrStopped is returned by Run variants when the engine was stopped
// explicitly before reaching the requested horizon.
var ErrStopped = errors.New("sim: engine stopped")

// initialHeapCap sizes the preallocated heap backing storage in 16-byte
// slots (2 KB). Once the lanes have taken the packets in flight, a 40-flow
// dumbbell run keeps a few dozen entries here — one wake-up per timer and
// the odd event no lane collects — so the slice never reallocates in
// steady state; the rest of the 8 KB it once had pays for the lanes' rings.
// A fabric's arrivals and RTO wake-ups grow it a few times in warm-up.
const initialHeapCap = 128

// The lanes' routing (see Engine.insert). None of these can change a
// result, only which sorted run an event waits in, so they are constants
// and not options; EngineStats.LaneHits shows when they matter.
const (
	// maxLanes bounds the sorted runs beside the heap; the cached head
	// instants fill one 64-byte line.
	maxLanes = 8
	// laneCandidateBits sizes the table of counters in which delays that no
	// lane collects compete for one: 1 << laneCandidateBits of them.
	laneCandidateBits = 3
	// laneGrantAfter is the count at which a candidate delay gets a lane.
	laneGrantAfter = 32
)

// Sources of the earliest pending slot, beside the lane indices 0..7.
const (
	srcHeap = -1
	srcNone = -2
)

// compactMinCancelled is the floor below which lazy cancellation is left
// alone: compacting a handful of events is not worth the O(n) pass.
const compactMinCancelled = 64

// Engine is the discrete-event simulation core. It owns the virtual clock
// and the pending-event queue. An Engine must not be shared across
// goroutines; all model code runs inside event handlers on the caller's
// goroutine. Concurrent experiments each own a private Engine (see
// internal/runner).
type Engine struct {
	now   Time
	queue eventHeap
	// nextSeq is the sequence number of the next event or timer arm, and
	// so also the count of both behind Stats().Scheduled.
	nextSeq uint64
	rng     *rand.Rand
	stopped bool

	// The lanes: nLanes sorted rings beside the heap, lane i collecting the
	// events scheduled laneD[i] ahead of the clock, with the firing instant
	// of its head cached in laneAt[i] (laneEmpty if it has none) so that
	// finding the earliest source reads one cache line.
	laneAt [maxLanes]Time
	laneD  [maxLanes]Time
	lanes  [maxLanes]lane
	nLanes int
	// pending is the number of slots in the heap and the lanes.
	pending int
	// cands counts recurrences of delays that no lane collects.
	cands [1 << laneCandidateBits]struct {
		d Time
		n int
	}

	// free is the event free list: fired and compacted events return
	// here and are handed back out by Schedule, so the steady-state
	// event path allocates nothing.
	free []*Event
	// cancelled counts lazily cancelled events, stopped timers' wake-ups
	// among them, still in the queue; when they outnumber live events the
	// queue is compacted.
	cancelled int

	// processed counts events that actually ran (cancelled events are
	// excluded). Exposed through Stats for tests and benchmarks.
	processed uint64

	// Observability counters behind EngineStats: free-list hits and
	// misses (the pool's effectiveness), total lazy cancellations,
	// compaction passes, and the high-water mark of the pending queue.
	// Plain field increments — the hot path stays branch- and
	// allocation-free whether or not anything ever reads them.
	freeHits       uint64
	freeMisses     uint64
	cancelledTotal uint64
	compactions    uint64
	maxPending     int
}

// NewEngine creates an engine whose random source is seeded with seed.
// The same seed always produces the same run.
func NewEngine(seed int64) *Engine {
	// The engine is the single sanctioned root of randomness: every other
	// construction site must draw from Engine.Rand() or an injected
	// *rand.Rand so one seed governs the whole run.
	return &Engine{
		rng:   rand.New(rand.NewSource(seed)), //dtlint:allow nondeterm: the one seeded root source
		queue: eventHeap{items: make([]heapSlot, 0, initialHeapCap)},
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. Model code must
// draw all randomness from here so a run is a pure function of its seed.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc takes an event from the free list, or makes one.
//
//dtlint:hotpath
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.freeHits++
		return ev
	}
	e.freeMisses++
	//dtlint:allow hotalloc: pool miss is the cold path; steady state is all free-list hits
	return &Event{}
}

// recycle returns a popped event to the free list.
//
//dtlint:hotpath
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.arg = nil
	ev.cancelled = false
	if ev.timer != nil {
		ev.timer.wake = nil
		ev.timer = nil
	}
	//dtlint:allow hotalloc: the free list retains capacity; growth is amortized across the warm-up
	e.free = append(e.free, ev)
}

// enqueue queues fn(arg) to run at the instant at under the key (at,
// schedAt, srcKey, seq), seq the next sequence number, and returns the
// pooled event. The full key must be final before the insert: every
// component participates in the ordering of the heap and of a lane, so
// rewriting one afterwards would silently violate their invariants for
// same-instant ties.
//
//dtlint:hotpath
func (e *Engine) enqueue(at, schedAt Time, srcKey int32, fn func(any), arg any) *Event {
	if at < e.now {
		//dtlint:allow hotalloc: formatting a panic message on the die path costs nothing in steady state
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", e.now, at))
	}
	ev := e.alloc()
	ev.at = at
	ev.schedAt = schedAt
	ev.srcKey = srcKey
	ev.seq = e.nextSeq
	ev.fn = fn
	ev.arg = arg
	e.nextSeq++
	e.insert(heapSlot{at: at, ev: ev})
	return ev
}

// insert queues a slot whose key is final: at the tail of the lane that
// collects its delay if it sorts after that tail, in the heap otherwise.
// The pending set is the heap plus the lanes, each a sorted run under the
// full key (at, schedAt, srcKey, seq), and the run loop takes the
// smallest head of all; so the order events run in is the order of their
// keys whichever run each one waited in, and routing decides speed alone.
// It pays because a simulated network schedules nearly every event one of
// a few constant delays ahead — a link's propagation time, a packet's
// serialisation time — and the clock never runs backwards, so those
// events arrive already sorted.
//
//dtlint:hotpath
func (e *Engine) insert(s heapSlot) {
	if e.pending++; e.pending > e.maxPending {
		e.maxPending = e.pending
	}
	if !e.toLane(s) {
		e.queue.push(s)
	}
}

// toLane appends s to the lane that collects its delay and reports whether
// it did. It does not if no lane collects that delay, which it notes, or if
// s ties with the lane's tail on the instant and sorts before it — a keyed
// delivery with a smaller source key, an injection stamped with an older
// scheduling instant. A lane's tail was queued the same delay ahead of a
// clock that never runs backwards, so s never fires before it.
//
//dtlint:hotpath
func (e *Engine) toLane(s heapSlot) bool {
	d := s.at - e.now
	i, n := 0, e.nLanes
	for i < n && e.laneD[i] != d {
		i++
	}
	if i == n {
		e.noteMiss(d)
		return false
	}
	l := &e.lanes[i]
	if l.head == l.tail {
		if s.at == laneEmpty {
			return false
		}
		e.laneAt[i] = s.at
	} else if last := l.at(l.len() - 1); s.at == last.at && !e.queue.less(last, s) {
		return false
	} else if l.len() == len(l.buf) {
		//dtlint:allow hotalloc: a ring doubles to its run's high-water mark in warm-up and is retained
		l.grow()
	}
	if invariant.Enabled {
		//dtlint:allow hotalloc: assertion boxing is build-tag gated; alloc tests skip under -tags invariants
		invariant.Assert(l.head == l.tail || e.queue.less(l.at(l.len()-1), s), "sim: lane %d: slot at %v does not sort after the tail", i, s.at)
	}
	l.buf[l.tail&uint(len(l.buf)-1)] = s
	l.tail++
	l.hits++
	return true
}

// popLane removes and returns the head of lane i.
//
//dtlint:hotpath
func (e *Engine) popLane(i int) *Event {
	l := &e.lanes[i]
	head := l.at(0)
	if invariant.Enabled {
		//dtlint:allow hotalloc: assertion boxing is build-tag gated; alloc tests skip under -tags invariants
		invariant.Assert(e.laneAt[i] == head.at, "sim: lane %d: cached head instant %v, head fires at %v", i, e.laneAt[i], head.at)
	}
	l.head++
	if l.head == l.tail {
		e.laneAt[i] = laneEmpty
	} else {
		e.laneAt[i] = l.at(0).at
	}
	return head.ev
}

// noteMiss counts a delay that no lane collects and gives it a lane once
// it has recurred laneGrantAfter times more than it has been contradicted.
// Each delay votes in the one counter it hashes to: a vote for the
// counter's delay adds one, a vote for another takes one away, and at zero
// the counter changes hands. So delays that do not recur (a jittered link,
// a hold model's random increments) cancel each other out and never earn a
// lane; of two recurring delays that share a counter the commoner wins it,
// gets its lane, stops missing, and leaves the counter to the other.
//
//dtlint:hotpath
func (e *Engine) noteMiss(d Time) {
	c := &e.cands[uint64(d)*0x9E3779B97F4A7C15>>(64-laneCandidateBits)]
	if c.d == d {
		if c.n++; c.n >= laneGrantAfter {
			c.n = 0
			e.grantLane(d)
		}
		return
	}
	// Written so that it compiles to conditional moves: for delays that do
	// not recur this is taken every other time, at random.
	cd, n := c.d, c.n-1
	if n < 0 {
		cd, n = d, 1
	}
	c.d, c.n = cd, n
}

// grantLane makes a new lane collect delay d. With all maxLanes taken it
// does nothing: d stays in the heap, where it costs what it always did.
func (e *Engine) grantLane(d Time) {
	if e.nLanes == maxLanes {
		return
	}
	//dtlint:allow hotalloc: one ring per lane granted, at most maxLanes in a run
	e.lanes[e.nLanes].buf = make([]heapSlot, initialLaneCap)
	e.laneAt[e.nLanes] = laneEmpty
	e.laneD[e.nLanes] = d
	e.nLanes++
}

// earliestTied resolves an exact tie on the instant at between sources
// under the full key.
func (e *Engine) earliestTied(at Time) int {
	src, best := srcNone, heapSlot{}
	if len(e.queue.items) > 0 && e.queue.items[0].at == at {
		src, best = srcHeap, e.queue.items[0]
	}
	for i, a := range e.laneAt[:e.nLanes] {
		if a != at || at == laneEmpty {
			continue
		}
		if h := e.lanes[i].at(0); src == srcNone || e.queue.less(h, best) {
			src, best = i, h
		}
	}
	return src
}

// Schedule enqueues fn to run at the absolute instant at. Scheduling in
// the past (before Now) is a programming error and panics: allowing it
// silently would reorder causality.
//
//dtlint:hotpath
func (e *Engine) Schedule(at Time, fn func()) {
	e.enqueue(at, e.now, unkeyedSrc, runFunc, fn)
}

// ScheduleArg enqueues fn to run at the absolute instant at with arg as
// its argument. The argument travels out of band so call sites with a
// long-lived fn (stored once on the owning struct) schedule without
// allocating a closure — the difference between one heap allocation per
// packet and none on the port transmit path.
//
//dtlint:hotpath
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) {
	e.enqueue(at, e.now, unkeyedSrc, fn, arg)
}

// InjectArg enqueues fn like ScheduleArg but stamps the event with the
// scheduling instant TimeZero instead of the engine's clock, so that it
// runs before any same-instant event scheduled later in virtual time. A
// workload uses it to queue its arrival trace, each arrival stamped as if
// scheduled at set-up.
func (e *Engine) InjectArg(at Time, fn func(any), arg any) {
	e.enqueue(at, TimeZero, unkeyedSrc, fn, arg)
}

// ScheduleSrcArg enqueues fn like ScheduleArg but additionally stamps the
// event with a stable source identity: srcKey is a topology domain index
// in [0, 2³¹) that no other source of the engine schedules under. Link
// deliveries use it so that same-instant ties between deliveries from
// different domains resolve by srcKey, an order fixed by the topology,
// instead of by global scheduling order; deliveries from one source keep
// the order it sent them in. Shrinking the key to (at, seq) would change
// that tie order and so every digest.
//
//dtlint:hotpath
func (e *Engine) ScheduleSrcArg(at Time, srcKey int, fn func(any), arg any) {
	if srcKey < 0 || srcKey > math.MaxInt32 {
		//dtlint:allow hotalloc: formatting a panic message on the die path costs nothing in steady state
		panic(fmt.Sprintf("sim: source key %d outside [0, 2³¹)", srcKey))
	}
	e.enqueue(at, e.now, int32(srcKey), fn, arg)
}

// After enqueues fn to run d after the current instant.
//
//dtlint:hotpath
func (e *Engine) After(d time.Duration, fn func()) {
	e.Schedule(e.now.Add(d), fn)
}

// AfterArg enqueues fn to run d after the current instant with arg as
// its argument; see ScheduleArg.
//
//dtlint:hotpath
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) {
	e.ScheduleArg(e.now.Add(d), fn, arg)
}

// noteCancelled records one lazy cancellation — a Timer stopped, or
// rearmed to an earlier instant — and compacts the queue when cancelled
// events outnumber live ones. Every finished connection leaves a stopped
// RTO timer behind, so without compaction a churn-heavy run would hold
// its dead deadlines in the heap until they surface.
//
//dtlint:hotpath
func (e *Engine) noteCancelled() {
	e.cancelled++
	e.cancelledTotal++
	if e.cancelled >= compactMinCancelled && e.cancelled*2 > e.Pending() {
		e.compact()
	}
}

// compact removes every cancelled event from the heap and the lanes in
// one O(n) pass and restores the heap property; a lane filtered in place
// is still sorted. Relative order of the survivors is unaffected: ordering
// is decided by the four-field key (at, schedAt, srcKey, seq), which
// compaction does not touch.
//
//dtlint:hotpath
func (e *Engine) compact() {
	items := e.queue.items
	kept := items[:0]
	for _, s := range items {
		if s.ev.cancelled {
			e.recycle(s.ev)
		} else {
			//dtlint:allow hotalloc: kept appends into the items backing array it aliases; it can never outgrow it
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(items); i++ {
		items[i] = heapSlot{}
	}
	e.pending -= len(items) - len(kept)
	e.queue.items = kept
	e.queue.reheapify()
	for i := range e.lanes[:e.nLanes] {
		l := &e.lanes[i]
		mask := uint(len(l.buf) - 1)
		w := l.head
		for r := l.head; r != l.tail; r++ {
			if s := l.buf[r&mask]; s.ev.cancelled {
				e.recycle(s.ev)
			} else {
				l.buf[w&mask] = s
				w++
			}
		}
		e.pending -= int(l.tail - w)
		l.tail = w
		e.laneAt[i] = laneEmpty
		if l.head != l.tail {
			e.laneAt[i] = l.at(0).at
		}
	}
	e.cancelled = 0
	e.compactions++
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events still queued (including lazily
// cancelled ones that have not yet been compacted away).
func (e *Engine) Pending() int { return e.pending }

// Run processes events until the queue drains or Stop is called. It
// returns ErrStopped in the latter case.
func (e *Engine) Run() error {
	return e.run(math.MaxInt64) // no horizon
}

// RunUntil processes events with firing times ≤ horizon and then advances
// the clock to horizon, so back-to-back RunUntil calls observe monotonic
// time. A run interrupted by Stop leaves the clock at the last event that
// ran: events before the horizon are still pending for the resumed run.
func (e *Engine) RunUntil(horizon Time) error {
	err := e.run(horizon)
	if err == nil && e.now < horizon {
		e.now = horizon
	}
	return err
}

// RunFor advances the simulation by d virtual time.
func (e *Engine) RunFor(d time.Duration) error {
	return e.RunUntil(e.now.Add(d))
}

// run processes events through horizon.
//
//dtlint:hotpath
func (e *Engine) run(horizon Time) error {
	e.stopped = false
	for {
		if e.stopped {
			return ErrStopped
		}
		if e.pending == 0 {
			return nil
		}
		// The earliest source: the heap's root or a lane's head. An exact
		// tie on the instant is for the full key to decide.
		src, at, tied := srcHeap, laneEmpty, false
		if len(e.queue.items) > 0 {
			at = e.queue.items[0].at
		}
		for i, a := range e.laneAt[:e.nLanes] {
			if a < at {
				src, at, tied = i, a, false
			} else if a == at {
				tied = true
			}
		}
		if at > horizon {
			return nil
		}
		if tied {
			src = e.earliestTied(at)
		}
		e.pending--
		var next *Event
		if src >= 0 {
			next = e.popLane(src)
		} else {
			next = e.queue.pop()
		}
		if t := next.timer; t != nil && t.seq != next.seq && !next.cancelled {
			// A wake-up ahead of the deadline its timer was rearmed to:
			// move it to the recorded key (see Timer), counting nothing.
			next.at, next.schedAt, next.seq = t.at, t.schedAt, t.seq
			e.insert(heapSlot{at: t.at, ev: next})
			continue
		}
		if next.cancelled {
			e.cancelled--
			e.recycle(next)
			continue
		}
		if invariant.Enabled {
			//dtlint:allow hotalloc: assertion boxing is build-tag gated; alloc tests skip under -tags invariants
			invariant.Assert(next.at >= e.now, "sim: event time moved backwards: now=%v next=%v", e.now, next.at)
		}
		e.now = next.at
		e.processed++
		// Recycle before running: the handler's own storage is saved to
		// locals, so any event the handler schedules can reuse it
		// immediately (the common self-scheduling transmit chain then
		// ping-pongs between two pooled events for its whole lifetime).
		fn, arg := next.fn, next.arg
		e.recycle(next)
		fn(arg)
	}
}

// Stats reports counters about engine activity.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Scheduled:   e.nextSeq,
		Processed:   e.processed,
		Pending:     e.Pending(),
		Cancelled:   e.cancelledTotal,
		Compactions: e.compactions,
		FreeHits:    e.freeHits,
		FreeMisses:  e.freeMisses,
		MaxPending:  e.maxPending,
		LaneHits:    e.laneHits(),
	}
}

// laneHits sums the lanes' append counts.
func (e *Engine) laneHits() (n uint64) {
	for i := range e.lanes {
		n += e.lanes[i].hits
	}
	return n
}

// EngineStats is a snapshot of engine counters.
type EngineStats struct {
	// Scheduled is the total number of events ever scheduled; a Timer
	// arm counts one even when it rearms in place and queues nothing.
	Scheduled uint64
	// Processed is the number of events whose Run hook executed.
	Processed uint64
	// Pending is the number of entries still queued, cancelled ones not
	// yet compacted away included; a timer holds at most one.
	Pending int
	// Cancelled is the total number of events cancelled over the run
	// (whether or not they have been compacted away yet), one per Timer
	// deadline stopped or superseded by a rearm.
	Cancelled uint64
	// Compactions counts queue compaction passes.
	Compactions uint64
	// FreeHits and FreeMisses count event allocations served from the
	// free list versus fresh heap allocations; a warm steady state has a
	// hit rate of 1.
	FreeHits, FreeMisses uint64
	// MaxPending is the high-water mark of the pending-event queue.
	MaxPending int
	// LaneHits is the number of queue insertions that were appended to a
	// lane — events and timer wake-ups scheduled a recurring delay ahead,
	// arriving in key order; the other insertions were sifted into the
	// heap. (Scheduled also counts timer rearms that queue nothing, and a
	// stale wake-up the run loop moves is inserted a second time.) It
	// describes the execution, like FreeHits, and never enters a result. LaneHits well below Processed says
	// that the run's delays are irregular, or more than maxLanes recur, and
	// its events pay the heap's price.
	LaneHits uint64
}

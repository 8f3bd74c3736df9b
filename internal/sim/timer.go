package sim

import "time"

// Timer is a restartable one-shot timer bound to an engine, mirroring the
// shape of TCP retransmission timers: arm, re-arm (which supersedes the
// previous deadline), and stop.
//
// A timer keeps at most one wake-up queued. Re-arming to a later-or-equal
// instant — every ACK pushes the RTO out — leaves it in place and records
// the new deadline with the ordering key (schedAt = now, seq = the next
// sequence number) a freshly scheduled event would have carried. The run
// loop moves a wake-up that surfaces ahead of that key there without
// advancing the clock or counting an event, so fire order and every
// counter but the queue's population are those of cancel-and-reschedule.
//
// A timer fires fn(arg) the way an event does, so an owner that embeds
// its timer and sets it up in place with Init costs no allocation and no
// method-value closure. Its wake-up points at the timer, which therefore
// must not move while one is queued.
type Timer struct {
	engine *Engine
	fn     func(any)
	arg    any
	// wake is the queued wake-up, nil when there is none. While the timer
	// is stopped it is flagged cancelled, a dead entry like any other to
	// compaction, until a rearm it can serve revives it.
	wake *Event
	// at, schedAt and seq are the ordering key of the armed deadline.
	at, schedAt Time
	seq         uint64
}

// NewTimer creates an unarmed timer that will invoke fn when it fires.
func NewTimer(engine *Engine, fn func()) *Timer {
	t := &Timer{}
	t.Init(engine, runFunc, fn)
	return t
}

// Init binds the timer, in place, to engine and to fn(arg), which it
// invokes when it fires; a zero Timer is unarmed. Init leaves the
// deadline and any queued wake-up as they are, so an owner that resets
// its storage for reuse binds its stopped timer again, to the same
// engine and callback.
func (t *Timer) Init(engine *Engine, fn func(any), arg any) {
	t.engine, t.fn, t.arg = engine, fn, arg
}

// Reset (re)arms the timer to fire d after the current virtual instant,
// superseding any previously armed deadline.
//
//dtlint:hotpath
func (t *Timer) Reset(d time.Duration) {
	t.ResetAt(t.engine.now.Add(d))
}

// ResetAt (re)arms the timer to fire at the absolute instant at.
//
//dtlint:hotpath
func (t *Timer) ResetAt(at Time) {
	e := t.engine
	w := t.wake
	if w == nil || at < w.at {
		// No wake-up queued, or one that would surface too late: leave
		// that one to lazy cancellation and queue another.
		t.Stop()
		if w != nil {
			w.timer = nil
		}
		w = e.enqueue(at, e.now, unkeyedSrc, t.fn, t.arg)
		w.timer, t.wake = t, w
		t.at, t.schedAt, t.seq = at, w.schedAt, w.seq
		return
	}
	// Rearm in place; at is not in the past, as no queued wake-up lies
	// before the clock.
	if w.cancelled {
		w.cancelled = false
		e.cancelled--
	} else {
		e.cancelledTotal++
	}
	t.at, t.schedAt, t.seq = at, e.now, e.nextSeq
	e.nextSeq++
}

// Stop disarms the timer. Stopping an unarmed timer is a no-op.
//
//dtlint:hotpath
func (t *Timer) Stop() {
	if w := t.wake; w != nil && !w.cancelled {
		w.cancelled = true
		t.engine.noteCancelled()
	}
}

// Armed reports whether the timer has a pending deadline.
//
//dtlint:hotpath
func (t *Timer) Armed() bool { return t.wake != nil && !t.wake.cancelled }

// Deadline returns the armed firing instant, or TimeNever if unarmed.
//
//dtlint:hotpath
func (t *Timer) Deadline() Time {
	if !t.Armed() {
		return TimeNever
	}
	return t.at
}

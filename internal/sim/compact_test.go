package sim

import (
	"testing"
	"time"
)

// TestPendingBoundedUnderCancelHeavyWorkload drives the RTO-rearm
// pattern — schedule a far deadline, cancel it on the next "ACK", repeat
// — and asserts the queue does not accumulate the cancelled backlog.
// Before compaction existed, Pending() grew linearly with the number of
// rearms (every cancelled timer lingered until its deadline surfaced).
func TestPendingBoundedUnderCancelHeavyWorkload(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	const rearms = 100000
	maxPending := 0
	for i := 0; i < rearms; i++ {
		// A long deadline that never fires before the next rearm.
		tm.Reset(time.Second)
		if p := e.Pending(); p > maxPending {
			maxPending = p
		}
	}
	// One live timer plus at most the compaction slack (cancelled events
	// may be up to half the queue plus the compaction floor).
	const bound = 2*compactMinCancelled + 16
	if maxPending > bound {
		t.Fatalf("Pending grew to %d under %d rearms, want ≤ %d", maxPending, rearms, bound)
	}
	tm.Stop()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := e.Stats().Processed; got != 0 {
		t.Fatalf("Processed = %d, want 0 (every deadline was superseded)", got)
	}
}

// oneShots arms n one-shot timers, timer i at at(i) running fn(i).
func oneShots(e *Engine, n int, at func(i int) Time, fn func(i int)) []*Timer {
	timers := make([]*Timer, n)
	for i := range timers {
		i := i
		timers[i] = NewTimer(e, func() { fn(i) })
		timers[i].ResetAt(at(i))
	}
	return timers
}

// TestCompactionPreservesOrder stops every other timer out of a large
// batch (forcing at least one compaction) and checks the survivors still
// run in exact (time, schedule-order) sequence.
func TestCompactionPreservesOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	// Odd, so that stopping the evens leaves more dead entries than live.
	const n = 1001
	// Many ties on the instant to exercise the seq tie-break after reheapify.
	timers := oneShots(e, n, func(i int) Time { return Time(i%10 + 1) }, func(i int) { got = append(got, i) })
	for i := 0; i < n; i += 2 {
		timers[i].Stop()
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("stopping half the batch never compacted")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != n/2 {
		t.Fatalf("ran %d events, want %d", len(got), n/2)
	}
	// Survivors are the odd indices, ordered by (at = i%10+1, seq = i):
	// compute the expected order with a stable sort by the same key.
	want := make([]int, 0, n/2)
	for at := 1; at <= 10; at++ {
		for i := 1; i < n; i += 2 {
			if i%10+1 == at {
				want = append(want, i)
			}
		}
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("order diverged at position %d: got %d, want %d", k, got[k], want[k])
		}
	}
}

// TestCancelDuringRunStillCompacts stops timers from inside event
// handlers, which is where model code (ACK processing) stops them from.
func TestCancelDuringRunStillCompacts(t *testing.T) {
	e := NewEngine(1)
	const n = 10000
	fired := 0
	victims := oneShots(e, n, func(i int) Time { return Time(1000000 + i) }, func(int) { fired++ })
	maxPending := 0
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(Time(1+i), func() {
			victims[i].Stop()
			if p := e.Pending(); p > maxPending {
				maxPending = p
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 0 {
		t.Fatalf("%d cancelled events fired", fired)
	}
	// The queue starts at 2n (victims + cancellers); it must shrink as
	// cancellations accumulate rather than holding all n victims.
	if maxPending >= 2*n {
		t.Fatalf("Pending never shrank below initial %d", maxPending)
	}
}

// TestCompactionThresholdExcludesRunningEvent pins the instant a handler's
// cancellations compact the queue: the event being run has left the
// pending set, so dead entries are weighed against the events still
// queued. 130 events; the first handler runs with 129 pending and stops
// 65 timers — the 65th makes dead × 2 = 130 > 129 and compacts, which
// 130 > 130 would not.
func TestCompactionThresholdExcludesRunningEvent(t *testing.T) {
	e := NewEngine(1)
	const n = 130
	var timers []*Timer
	ran := 0
	e.Schedule(1, func() {
		for i := 1; i <= 65; i++ {
			timers[i-1].Stop()
			if got, want := e.Stats().Compactions, uint64(i/65); got != want {
				t.Fatalf("after %d cancellations: %d compactions, want %d", i, got, want)
			}
		}
		if got := e.Pending(); got != n-1-65 {
			t.Fatalf("Pending = %d after compacting from a handler, want %d", got, n-1-65)
		}
	})
	timers = oneShots(e, n-1, func(i int) Time { return Time(2 + i) }, func(int) { ran++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); ran != n-1-65 || s.Compactions != 1 || s.MaxPending != n {
		t.Fatalf("ran %d, stats %+v; want %d run, 1 compaction, MaxPending %d", ran, s, n-1-65, n)
	}
}

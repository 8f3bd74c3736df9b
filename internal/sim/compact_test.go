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

// TestCompactionPreservesOrder cancels every other event out of a large
// batch (forcing at least one compaction) and checks the survivors still
// run in exact (time, schedule-order) sequence.
func TestCompactionPreservesOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var refs []EventRef
	const n = 1000
	for i := 0; i < n; i++ {
		i := i
		// Many ties on At to exercise the seq tie-break after reheapify.
		refs = append(refs, e.Schedule(Time(i%10+1), func() { got = append(got, i) }))
	}
	for i := 0; i < n; i += 2 {
		refs[i].Cancel()
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

// TestCancelDuringRunStillCompacts cancels from inside event handlers,
// which is where model code (ACK processing) actually cancels from.
func TestCancelDuringRunStillCompacts(t *testing.T) {
	e := NewEngine(1)
	const n = 10000
	var victims []EventRef
	fired := 0
	for i := 0; i < n; i++ {
		victims = append(victims, e.Schedule(Time(1000000+i), func() { fired++ }))
	}
	maxPending := 0
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(Time(1+i), func() {
			victims[i].Cancel()
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
// queued. 130 events; the first handler runs with 129 pending and cancels
// 65 of them — the 65th makes dead × 2 = 130 > 129 and compacts, which
// 130 > 130 would not.
func TestCompactionThresholdExcludesRunningEvent(t *testing.T) {
	e := NewEngine(1)
	const n = 130
	refs := make([]EventRef, n)
	ran := 0
	refs[0] = e.Schedule(1, func() {
		for i := 1; i <= 65; i++ {
			refs[i].Cancel()
			if got, want := e.Stats().Compactions, uint64(i/65); got != want {
				t.Fatalf("after %d cancellations: %d compactions, want %d", i, got, want)
			}
		}
		if got := e.Pending(); got != n-1-65 {
			t.Fatalf("Pending = %d after compacting from a handler, want %d", got, n-1-65)
		}
	})
	for i := 1; i < n; i++ {
		refs[i] = e.Schedule(Time(1+i), func() { ran++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); ran != n-1-65 || s.Compactions != 1 || s.MaxPending != n {
		t.Fatalf("ran %d, stats %+v; want %d run, 1 compaction, MaxPending %d", ran, s, n-1-65, n)
	}
}

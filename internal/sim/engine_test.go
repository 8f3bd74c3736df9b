package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != TimeZero {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{500, 100, 300, 200, 400} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{100, 200, 300, 400, 500}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSimultaneousEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(1000, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order violated at index %d: got %d", i, v)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(777, func() {
		if e.Now() != 777 {
			t.Errorf("Now() inside handler = %v, want 777", e.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.Now() != 777 {
		t.Fatalf("Now() after run = %v, want 777", e.Now())
	}
}

func TestSchedulingIntoThePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.Schedule(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRunUntilStopsAtHorizonAndAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{100, 200, 300} {
		at := at
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	if err := e.RunUntil(250); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %d events before horizon, want 2", len(ran))
	}
	if e.Now() != 250 {
		t.Fatalf("clock = %v after RunUntil(250), want 250", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ran) != 3 {
		t.Fatalf("ran %d events total, want 3", len(ran))
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	if err := e.RunUntil(1e9); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if e.Now() != 1e9 {
		t.Fatalf("clock = %v, want 1e9", e.Now())
	}
}

func TestCancelSkipsEvent(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tm := NewTimer(e, func() { ran = true })
	tm.ResetAt(100)
	tm.Stop()
	if tm.Armed() {
		t.Fatal("Armed() = true after Stop")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
	if got := e.Stats().Processed; got != 0 {
		t.Fatalf("Processed = %d, want 0", got)
	}
}

// TestCancelAfterFireIsNoop stops a timer whose wake-up has fired and
// been recycled into a later event: the Stop must not reach that event.
func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	tm.ResetAt(100)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The fired wake-up's storage is recycled; the next event occupies it.
	ran := false
	e.Schedule(200, func() { ran = true })
	tm.Stop()
	if s := e.Stats(); s.Cancelled != 0 || e.Pending() != 1 {
		t.Fatalf("Stop after the fire cancelled %d events, %d pending; want 0 and 1", s.Cancelled, e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("the event in the recycled storage did not run")
	}
}

func TestStopInterruptsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("processed %d events before stop, want 3", count)
	}
	// The run can be resumed.
	if err := e.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if count != 10 {
		t.Fatalf("processed %d events total, want 10", count)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var fired Time = TimeNever
	e.Schedule(1000, func() {
		e.After(500*time.Nanosecond, func() { fired = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1500 {
		t.Fatalf("After fired at %v, want 1500", fired)
	}
}

func TestDeterministicRandomSource(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced diverging random streams")
		}
	}
}

func TestEngineStatsCounters(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	tm := NewTimer(e, func() {})
	tm.ResetAt(2)
	tm.Stop()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := e.Stats()
	if s.Scheduled != 2 || s.Processed != 1 || s.Pending != 0 {
		t.Fatalf("Stats = %+v, want {2 1 0}", s)
	}
}

// TestEventIsOneCacheLine pins the event's size: the kernel touches one
// per event, tens of millions per figure, and a deep queue keeps them live.
func TestEventIsOneCacheLine(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pin is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("Event is %d B, want 64", got)
	}
}

// Property: for any set of (time, id) pairs, the engine replays them in
// stable sorted order (time ascending, insertion order for ties).
func TestPropertyEventOrdering(t *testing.T) {
	type stamped struct {
		at  Time
		idx int
	}
	f := func(raw []uint32) bool {
		e := NewEngine(1)
		want := make([]stamped, len(raw))
		var got []stamped
		for i, r := range raw {
			at := Time(r % 1000) // force plenty of ties
			want[i] = stamped{at: at, idx: i}
			i := i
			e.Schedule(at, func() { got = append(got, stamped{at: at, idx: i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any interleaving of pushes and pops, every pop returns
// exactly what a reference model (a sorted list keyed by (At, seq)) would.
func TestPropertyHeapMatchesReferenceModel(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []key
		var seq uint64
		for _, op := range ops {
			if op%3 != 0 || h.Len() == 0 {
				k := key{at: Time(rng.Intn(64)), seq: seq}
				seq++
				h.push(heapSlot{at: k.at, ev: &Event{at: k.at, seq: k.seq}})
				ref = append(ref, k)
				continue
			}
			ev := h.pop()
			best := 0
			for i, k := range ref {
				if k.at < ref[best].at || (k.at == ref[best].at && k.seq < ref[best].seq) {
					best = i
				}
			}
			if ev.at != ref[best].at || ev.seq != ref[best].seq {
				return false
			}
			ref = append(ref[:best], ref[best+1:]...)
		}
		if h.Len() != len(ref) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetSupersedesDeadline(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(100 * time.Nanosecond)
	tm.Reset(500 * time.Nanosecond)
	if err := e.RunUntil(200); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fires != 0 {
		t.Fatal("superseded deadline fired")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(100 * time.Nanosecond)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if got := tm.Deadline(); got != 100 {
		t.Fatalf("Deadline = %v, want 100", got)
	}
	tm.Stop()
	if tm.Armed() {
		t.Fatal("timer armed after Stop")
	}
	if got := tm.Deadline(); got != TimeNever {
		t.Fatalf("Deadline after Stop = %v, want never", got)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fires != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerResetAt(t *testing.T) {
	e := NewEngine(1)
	var firedAt Time = TimeNever
	tm := NewTimer(e, func() { firedAt = e.Now() })
	tm.ResetAt(4321)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedAt != 4321 {
		t.Fatalf("timer fired at %v, want 4321", firedAt)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := FromDuration(3 * time.Microsecond)
	if tt != 3000 {
		t.Fatalf("FromDuration = %v, want 3000", tt)
	}
	if tt.Duration() != 3*time.Microsecond {
		t.Fatalf("Duration = %v", tt.Duration())
	}
	if tt.Seconds() != 3e-6 {
		t.Fatalf("Seconds = %v", tt.Seconds())
	}
	if got := Time(1500).String(); got != "1.500µs" {
		t.Fatalf("String = %q", got)
	}
	if got := TimeNever.String(); got != "never" {
		t.Fatalf("TimeNever.String = %q", got)
	}
}

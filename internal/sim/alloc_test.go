// Allocation-regression tests for the pooled event path. They are
// excluded from race builds (the race runtime adds bookkeeping
// allocations) and skipped under -tags invariants (assertion arguments
// box into ...any); CI runs them in the default configuration, where a
// regression fails the build.

//go:build !race

package sim

import (
	"testing"
	"time"

	"dtdctcp/internal/invariant"
)

// TestScheduleSteadyStateAllocFree asserts that once the event pool is
// warm, Schedule + run recycles storage instead of allocating: the
// dominant cost of every packet-level experiment.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions box arguments; allocation budget does not apply")
	}
	e := NewEngine(1)
	fn := func() {}
	// Warm the pool past the working set of the loop below.
	for i := 0; i < 128; i++ {
		e.Schedule(e.Now()+Time(i%8+1), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(e.Now()+Time(i%8+1), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/run allocates %.1f objs per batch, want 0", allocs)
	}

	// A closure that captures state, built once and scheduled by Schedule
	// and After: it travels to the run loop as the event's argument, which
	// a func value fills without a heap copy.
	fired := 0
	count := func() { fired++ }
	allocs = testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.Schedule(e.Now()+Time(i%8+1), count)
			e.After(time.Duration(i%8+1), count)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scheduling a capturing closure allocates %.1f objs per batch, want 0", allocs)
	}
	if fired != 201*64 {
		t.Fatalf("the closure ran %d times, want %d", fired, 201*64)
	}
}

// TestAfterArgSteadyStateAllocFree covers the closure-free scheduling
// path the port transmit chain uses: a long-lived fn plus an out-of-band
// pointer argument must not allocate.
func TestAfterArgSteadyStateAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions box arguments; allocation budget does not apply")
	}
	e := NewEngine(1)
	type payload struct{ n int }
	p := &payload{}
	fn := func(arg any) { arg.(*payload).n++ }
	e.AfterArg(time.Microsecond, fn, p)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		e.AfterArg(time.Microsecond, fn, p)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterArg steady state allocates %.1f objs per event, want 0", allocs)
	}
	if p.n == 0 {
		t.Fatal("argument-carrying events never ran")
	}

	// The delays of a 40-flow dumbbell over 150 chains: once each delay has
	// its lane and the rings have doubled to the run's depth, an event
	// allocates nothing, whichever lane it waits in.
	var chain func(any)
	chain = func(arg any) {
		q := arg.(*payload)
		q.n++
		e.AfterArg(dumbbellDelays[q.n%len(dumbbellDelays)], chain, q)
	}
	for i := 0; i < 150; i++ {
		e.AfterArg(time.Duration(i), chain, &payload{n: i})
	}
	if err := e.RunFor(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	allocs = testing.AllocsPerRun(50, func() {
		if err := e.RunFor(100 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	after := e.Stats()
	if allocs != 0 {
		t.Fatalf("four-delay mix allocates %.1f objs per 100 µs, want 0", allocs)
	}
	if events, hits := after.Processed-before.Processed, after.LaneHits-before.LaneHits; events < 10000 || hits != events {
		t.Fatalf("%d events, %d of them appended to a lane; want every one of at least 10000", events, hits)
	}
}

// TestTimerRearmAllocFree asserts the RTO pattern — Reset superseding a
// pending deadline on every ACK — allocates nothing once warm, including
// across the compactions its cancellations trigger.
func TestTimerRearmAllocFree(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions box arguments; allocation budget does not apply")
	}
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	for i := 0; i < 1024; i++ {
		tm.Reset(time.Millisecond)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			tm.Reset(time.Millisecond)
		}
	})
	tm.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("timer rearm allocates %.1f objs per batch, want 0", allocs)
	}

	// A timer that fires: its wake-up runs the timer's func through the
	// same one-call path as any event.
	fires := 0
	tm = NewTimer(e, func() { fires++ })
	allocs = testing.AllocsPerRun(200, func() {
		tm.Reset(time.Microsecond)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a timer fire allocates %.1f objs, want 0", allocs)
	}
	if fires != 201 {
		t.Fatalf("the timer fired %d times, want 201", fires)
	}
}

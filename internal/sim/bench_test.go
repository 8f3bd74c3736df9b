package sim

import (
	"testing"
	"time"
)

// BenchmarkScheduleRun measures raw event throughput: the dominant cost of
// every packet-level experiment (each packet is ~4 events).
func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(i%64), func() {})
		if i%1024 == 1023 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventChain measures the self-scheduling pattern every port's
// transmit loop uses.
func BenchmarkEventChain(b *testing.B) {
	e := NewEngine(1)
	remaining := b.N
	var step func()
	step = func() {
		remaining--
		if remaining > 0 {
			e.After(time.Microsecond, step)
		}
	}
	b.ReportAllocs()
	e.After(time.Microsecond, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerReset measures RTO-style timer rearming.
func BenchmarkTimerReset(b *testing.B) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Millisecond)
		if i%4096 == 4095 {
			// Drain the cancelled backlog periodically, as a real
			// run's event loop does.
			if err := e.RunUntil(e.Now()); err != nil {
				b.Fatal(err)
			}
		}
	}
	tm.Stop()
}

// dumbbellDelays are the delays Engine.insert sees on a 40-flow dumbbell in
// their proportions: a link's 25 µs propagation time half the time, then
// the 1.2 µs, 120 ns and 3 ns serialisation times at 25, 12.5 and 12.5 %.
var dumbbellDelays = [8]time.Duration{25000, 25000, 25000, 25000, 1200, 1200, 120, 3}

// BenchmarkEventMix measures an event under the delays a packet run
// schedules at: about 150 events pending, each handler scheduling its
// successor one of dumbbellDelays ahead, 0.3 % at a delay that never
// recurs, and an RTO-style Timer pushed out on every eighth event.
// The ledger's kernel rungs are the two extremes — a one-entry chain and a
// hold model whose every delay is random — and neither shows what the
// lanes are for; this does.
func BenchmarkEventMix(b *testing.B) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	x := uint64(88172645463325252)
	var remaining int
	var step func(any)
	step = func(any) {
		if remaining--; remaining < 0 {
			return
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d := dumbbellDelays[x>>61]
		if x>>32%333 == 0 {
			d = time.Duration(x >> 50)
		}
		if remaining%8 == 0 {
			tm.Reset(200 * time.Microsecond)
		}
		e.AfterArg(d, step, nil)
	}
	// Every chain ends once the budget is spent, and Run with it. The first
	// pass is the warm-up: the pool filled, the lanes granted, the rings
	// grown.
	b.ReportAllocs()
	for _, budget := range []int{20000, b.N} {
		remaining = budget
		for i := 0; i < 150; i++ {
			e.AfterArg(time.Duration(i), step, nil)
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestShardSeedStreams(t *testing.T) {
	const seed = int64(42)
	if got := ShardSeed(seed, 0); got != seed {
		t.Fatalf("shard 0 must reuse the run seed (serial stream): got %d want %d", got, seed)
	}
	seen := map[int64]int{seed: 0}
	for i := 1; i < 64; i++ {
		s := ShardSeed(seed, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	// The stream of shard i is a function of (seed, i) only — never of
	// the shard count — so regrouping domains cannot move a stream.
	if ShardSeed(seed, 3) != ShardSeed(seed, 3) {
		t.Fatal("ShardSeed is not a pure function")
	}
}

// TestInjectKeyedHeapPosition is the regression test for a heap-ordering
// bug: InjectArg once stamped the explicit scheduling instant after the
// event had already been pushed (and sifted) under the engine clock, so a
// same-instant tie between an injected delivery and a native event
// resolved by the corrupted position instead of the (at, schedAt) key.
func TestInjectKeyedHeapPosition(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(100, func() {
		// At now=100, schedule a native event for t=200 (schedAt=100),
		// then inject one for the same instant with an earlier schedAt.
		// The injected event must run first despite being enqueued last.
		e.Schedule(200, func() { order = append(order, "native") })
		e.InjectArg(200, 50, func(any) { order = append(order, "injected") }, nil)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "injected" || order[1] != "native" {
		t.Fatalf("tie resolved in wrong order: %v", order)
	}
}

// TestSourceKeyedTieOrder pins the shard-invariant tie-break: events
// firing at the same (at, schedAt) run in (srcKey, srcSeq) order, with
// unkeyed events ahead of every keyed one, regardless of the order the
// scheduling calls were made in.
func TestSourceKeyedTieOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	rec := func(name string) func(any) {
		return func(any) { order = append(order, name) }
	}
	e.ScheduleSrcArg(300, 7, 0, rec("d7s0"), nil)
	e.ScheduleSrcArg(300, 2, 1, rec("d2s1"), nil)
	e.ScheduleSrcArg(300, 2, 0, rec("d2s0"), nil)
	e.ScheduleArg(300, rec("local"), nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"local", "d2s0", "d2s1", "d7s0"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie order %v, want %v", order, want)
		}
	}
}

func TestScheduleSrcArgRejectsNegativeKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative source key accepted")
		}
	}()
	NewEngine(1).ScheduleSrcArg(1, -1, 0, func(any) {}, nil)
}

// TestExchangeInjectionOrder ships same-instant messages from several
// outboxes and checks they execute in (At, SchedAt, SrcKey, SrcSeq)
// order at the destination shard, independent of shipping order.
func TestExchangeInjectionOrder(t *testing.T) {
	se := NewShardedEngine(1, 2)
	se.SetLookahead(100)
	var order []string
	rec := func(name string) func(any) {
		return func(any) { order = append(order, name) }
	}
	// Shard 1 ships three deliveries to shard 0, all firing at t=150
	// with ship instant 50, shipped out of key order.
	se.Shard(1).Schedule(50, func() {
		out := se.Outbox(1)
		out.Ship(Message{At: 150, SchedAt: 50, SrcKey: 5, SrcSeq: 0, Dst: 0, Fn: rec("d5s0")})
		out.Ship(Message{At: 150, SchedAt: 50, SrcKey: 3, SrcSeq: 1, Dst: 0, Fn: rec("d3s1")})
		out.Ship(Message{At: 150, SchedAt: 50, SrcKey: 3, SrcSeq: 0, Dst: 0, Fn: rec("d3s0")})
	})
	if err := se.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	want := []string{"d3s0", "d3s1", "d5s0"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("injection order %v, want %v", order, want)
		}
	}
}

// TestShardedRunMatchesSerialPingPong runs the same two-domain ping-pong
// on two and three shards and requires the completion count and final
// clock a serial run has: a kick, then one delivery every 25 ticks up to
// the horizon. It is the sim-layer miniature of the system-level digest
// tests in internal/core.
func TestShardedRunMatchesSerialPingPong(t *testing.T) {
	run := func(shards int) (uint64, Time) {
		se := NewShardedEngine(7, shards)
		se.SetLookahead(25)
		a, b := se.Shard(0), se.Shard(shards-1)
		outA, outB := se.Outbox(0), se.Outbox(shards-1)
		var seqA, seqB uint64
		count := 0
		var pingB, pongA func(any)
		pingB = func(any) {
			count++
			now := b.Now()
			outB.Ship(Message{At: now + 25, SchedAt: now, SrcKey: 1, SrcSeq: seqB, Dst: 0, Fn: pongA})
			seqB++
		}
		pongA = func(any) {
			now := a.Now()
			outA.Ship(Message{At: now + 25, SchedAt: now, SrcKey: 0, SrcSeq: seqA, Dst: shards - 1, Fn: pingB})
			seqA++
		}
		a.Schedule(0, func() {
			now := a.Now()
			outA.Ship(Message{At: now + 25, SchedAt: now, SrcKey: 0, SrcSeq: seqA, Dst: shards - 1, Fn: pingB})
			seqA++
		})
		if err := se.RunUntil(10_000); err != nil {
			t.Fatal(err)
		}
		return se.Stats().Processed, se.Now()
	}
	const wantProcessed, wantNow = 1 + 10_000/25, Time(10_000)
	for _, shards := range []int{2, 3} {
		gotProcessed, gotNow := run(shards)
		if gotProcessed != wantProcessed || gotNow != wantNow {
			t.Fatalf("shards=%d: processed=%d now=%v, want processed=%d now=%v",
				shards, gotProcessed, gotNow, wantProcessed, wantNow)
		}
	}
}

// TestShardedStatsMerge checks the merged counters: sums over shards for
// totals, maximum over shards for the pending high-water mark.
func TestShardedStatsMerge(t *testing.T) {
	se := NewShardedEngine(1, 2)
	se.SetLookahead(10)
	se.Shard(0).Schedule(5, func() {})
	se.Shard(1).Schedule(5, func() {})
	se.Shard(1).Schedule(6, func() {})
	if err := se.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	st := se.Stats()
	if st.Processed != 3 || st.Scheduled != 3 {
		t.Fatalf("merged totals wrong: %+v", st)
	}
	if st.MaxPending != 2 {
		t.Fatalf("MaxPending must be the max over shards (2), got %d", st.MaxPending)
	}
}

// TestShardedRunForAdvancesClock pins the horizon semantics: after
// RunFor/RunUntil the coordinator clock sits at the horizon even if all
// shards drained early.
func TestShardedRunForAdvancesClock(t *testing.T) {
	se := NewShardedEngine(1, 2)
	se.SetLookahead(25)
	if err := se.RunFor(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if want := FromDuration(time.Microsecond); se.Now() != want {
		t.Fatalf("clock at %v, want %v", se.Now(), want)
	}
}

// TestShardedAccessorsAndStop covers the coordinator's small surface:
// shard count, lookahead round-trip, barrier hooks firing at every
// exchange, and Stop ending the run at the next barrier.
func TestShardedAccessorsAndStop(t *testing.T) {
	se := NewShardedEngine(1, 3)
	if se.NumShards() != 3 {
		t.Fatalf("NumShards = %d", se.NumShards())
	}
	se.SetLookahead(40)
	if se.Lookahead() != 40 {
		t.Fatalf("Lookahead = %v", se.Lookahead())
	}
	hooks := 0
	se.AddBarrierHook(func() { hooks++ })
	se.Shard(0).Schedule(10, func() {})
	se.Shard(1).Schedule(90, func() {})
	if err := se.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if hooks == 0 {
		t.Fatal("barrier hook never ran")
	}
	se.Shard(2).Schedule(se.Shard(2).Now()+10, func() { se.Stop() })
	if err := se.RunUntil(400); err != ErrStopped {
		t.Fatalf("RunUntil after Stop = %v, want ErrStopped", err)
	}
}

// TestEngineRunFor pins the serial RunFor horizon semantics in-package.
func TestEngineRunFor(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(FromDuration(time.Microsecond/2), func() { ran = true })
	if err := e.RunFor(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event inside the window did not run")
	}
	if want := FromDuration(time.Microsecond); e.Now() != want {
		t.Fatalf("clock at %v, want %v", e.Now(), want)
	}
}

// TestInjectValidation pins the inject-key invariants: a delivery may
// never carry a scheduling instant after its firing instant, nor a
// negative source key.
func TestInjectValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("InjectArg schedAt>at", func() {
		NewEngine(1).InjectArg(5, 10, func(any) {}, nil)
	})
	mustPanic("InjectSrcArg schedAt>at", func() {
		NewEngine(1).InjectSrcArg(5, 10, 0, 0, func(any) {}, nil)
	})
	mustPanic("InjectSrcArg negative key", func() {
		NewEngine(1).InjectSrcArg(10, 5, -1, 0, func(any) {}, nil)
	})
	mustPanic("NewShardedEngine zero shards", func() {
		NewShardedEngine(1, 0)
	})
}

// TestExchangeSchedAtTieBreak ships same-instant messages whose keys
// differ only in SchedAt, covering the second message-sort branch.
func TestExchangeSchedAtTieBreak(t *testing.T) {
	se := NewShardedEngine(1, 2)
	se.SetLookahead(100)
	var order []string
	rec := func(name string) func(any) {
		return func(any) { order = append(order, name) }
	}
	se.Shard(1).Schedule(60, func() {
		out := se.Outbox(1)
		out.Ship(Message{At: 170, SchedAt: 60, SrcKey: 1, SrcSeq: 0, Dst: 0, Fn: rec("late")})
		out.Ship(Message{At: 170, SchedAt: 40, SrcKey: 9, SrcSeq: 0, Dst: 0, Fn: rec("early")})
	})
	if err := se.RunUntil(300); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("order %v, want earlier SchedAt first", order)
	}
}

// ringToken is what travels round the ring in ringFingerprint.
type ringToken struct{ from, hops int }

// ringFingerprint runs tokens round a ring of eight domains spread over
// the shards (domain d on shard d mod shards) and returns every domain's
// arrival log. A domain forwards a token the way a partitioned port
// does: keyed by (domain, counter), directly when the destination shares
// its shard and through the outbox when it does not. Every third hop
// also forwards two domains ahead, so arrivals from different sources
// tie at one domain and instant, next to the local event each arrival
// leaves one hop later.
func ringFingerprint(t *testing.T, shards int) string {
	t.Helper()
	const domains, hop = 8, Time(25)
	se := NewShardedEngine(5, shards)
	se.SetLookahead(hop)
	logs := make([][]string, domains)
	seqs := make([]uint64, domains)
	recv := make([]func(any), domains)
	for d := range recv {
		d, shard := d, d%shards
		e := se.Shard(shard)
		forward := func(to int, tok ringToken) {
			to %= domains
			if dst := to % shards; dst == shard {
				e.ScheduleSrcArg(e.Now()+hop, d, seqs[d], recv[to], tok)
				se.Outbox(shard).NoteLocal()
			} else {
				se.Outbox(shard).Ship(Message{At: e.Now() + hop, SchedAt: e.Now(), SrcKey: d, SrcSeq: seqs[d], Dst: dst, Fn: recv[to], Arg: tok})
			}
			seqs[d]++
		}
		recv[d] = func(arg any) {
			tok := arg.(ringToken)
			logs[d] = append(logs[d], fmt.Sprintf("%d<%d", e.Now(), tok.from))
			e.Schedule(e.Now()+hop, func() { logs[d] = append(logs[d], fmt.Sprintf("%d.", e.Now())) })
			next := ringToken{from: d, hops: tok.hops + 1}
			forward(d+1, next)
			if tok.hops%3 == 0 && tok.hops < 12 {
				forward(d+2, next)
			}
		}
	}
	for _, d := range []int{0, 3, 6} {
		se.Shard(d%shards).ScheduleArg(0, recv[d], ringToken{from: -1})
	}
	if err := se.RunUntil(2000); err != nil {
		t.Fatal(err)
	}
	if st := se.ShardStats(); shards > 1 && (st.Messages == 0 || st.Epochs == 0 || len(st.Events) != shards) {
		t.Fatalf("shards=%d: coordinator counters %+v", shards, st)
	}
	return fmt.Sprint(logs, se.Stats().Processed, se.Now())
}

// TestShardBarrierParksWithoutSpareProcs runs four shards on one
// processor: nobody may spin (the goroutine being waited for could not
// run), every hand-off goes through the park path, and the run still
// ends and matches the serial one. With a processor per shard the
// workers spin first.
func TestShardBarrierParksWithoutSpareProcs(t *testing.T) {
	want := ringFingerprint(t, 1)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		ws := NewShardedEngine(1, 4).startWorkers()
		spin := ws.spin
		ws.close()
		got := ringFingerprint(t, 4)
		runtime.GOMAXPROCS(prev)
		wantSpin := 0
		if procs >= 4 {
			wantSpin = spinBudget
		}
		if spin != wantSpin {
			t.Errorf("GOMAXPROCS=%d, 4 shards: spin budget %d, want %d", procs, spin, wantSpin)
		}
		if got != want {
			t.Errorf("GOMAXPROCS=%d, 4 shards diverged from serial:\nserial  %s\nsharded %s", procs, want, got)
		}
	}
	for _, shards := range []int{2, 3, 8} {
		if got := ringFingerprint(t, shards); got != want {
			t.Errorf("shards=%d diverged from serial:\nserial  %s\nsharded %s", shards, want, got)
		}
	}
}

// TestShardWorkerErrorsSurface: a worker shard whose engine is stopped
// mid-window fails its RunStrictUntil, and a handler on a worker shard
// may stop the coordinator; RunUntil reports either, and the next call
// runs on.
func TestShardWorkerErrorsSurface(t *testing.T) {
	for name, stop := range map[string]func(se *ShardedEngine){
		"worker engine stopped": func(se *ShardedEngine) { se.Shard(2).Stop() },
		"coordinator stopped":   func(se *ShardedEngine) { se.Stop() },
	} {
		se := NewShardedEngine(1, 3)
		se.SetLookahead(10)
		ran := false
		se.Shard(2).Schedule(15, func() { stop(se) })
		se.Shard(1).Schedule(95, func() { ran = true })
		if err := se.RunUntil(100); err != ErrStopped {
			t.Errorf("%s: RunUntil = %v, want ErrStopped", name, err)
		}
		if ran {
			t.Errorf("%s: the run went on past the stop", name)
		}
		if err := se.RunUntil(100); err != nil || !ran {
			t.Errorf("%s: resumed RunUntil = %v, ran = %v", name, err, ran)
		}
	}
}

// TestShardWorkersExitWithRunUntil: the worker goroutines live for one
// RunUntil call, however it ends.
func TestShardWorkersExitWithRunUntil(t *testing.T) {
	base := runtime.NumGoroutine()
	se := NewShardedEngine(1, 4)
	se.SetLookahead(10)
	for i := 0; i < 4; i++ {
		se.Shard(i).Schedule(Time(5+20*i), func() {})
	}
	se.Shard(3).Schedule(200, func() { se.Stop() })
	if err := se.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if err := se.RunUntil(300); err != ErrStopped {
		t.Fatalf("RunUntil = %v, want ErrStopped", err)
	}
	// close has waited for every worker's last statement; give the
	// runtime a moment to retire the goroutines themselves.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunUntil returned, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

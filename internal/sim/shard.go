package sim

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the sharded execution layer: a conservative
// parallel-discrete-event coordinator over the single-threaded Engine.
//
// The topology is cut into shard domains, each owning one Engine (event
// wheel, free list, RNG stream). Shards run concurrently inside epoch
// windows bounded by the lookahead L — the minimum propagation delay over
// links whose deliveries can land on another shard. The window arithmetic
// is the classic null-message argument collapsed to a barrier: events
// executed in [w·L, (w+1)·L) can only produce cross-shard effects at
// ≥ w·L + L = (w+1)·L, so every message generated inside a window is
// injectable at the barrier that closes it, before any shard has advanced
// past the message's firing time.
//
// Only deliveries that really change shard travel as messages; a delivery
// whose destination lives on the sender's shard is scheduled there
// directly with ScheduleSrcArg. Both carry the same (at, schedAt, srcKey,
// srcSeq) key, which orders keyed events totally before the engine-local
// seq is ever consulted, so the interleaving at the destination — and
// every result — is that of a serial run for any grouping of domains.
// The barrier still injects its messages in key order, so the sequence
// numbers they take never depend on which outbox a message waited in.
//
// Everything below the barrier (model code inside event handlers) stays
// single-threaded per shard and is untouched; the goroutines, atomics and
// channels live only in this explicitly marked synchronization layer.

// errLookahead reports a coordinator misconfiguration.
var errLookahead = errors.New("sim: sharded engine requires a positive lookahead")

// tick is the virtual clock's resolution, used by the epoch loop to turn
// the engine's inclusive horizon into the half-open windows the strict
// runner consumes.
const tick Time = 1

// Message is one cross-shard delivery, shipped into an Outbox during an
// epoch window and injected into the destination shard's event wheel at
// the closing barrier.
type Message struct {
	// At is the virtual instant the delivery fires at the destination.
	At Time
	// SchedAt is the virtual instant the sender shipped it; it becomes
	// the injected event's scheduling instant in the destination's
	// (at, schedAt, seq) ordering key.
	SchedAt Time
	// SrcKey is the stable global index of the sending domain; together
	// with SrcSeq it makes the barrier's global sort order total and
	// independent of how domains are grouped into shards.
	SrcKey int
	// SrcSeq is the sender's monotone per-domain message counter.
	SrcSeq uint64
	// Dst is the destination shard index.
	Dst int
	// Fn runs with Arg on the destination shard at At.
	Fn func(any)
	// Arg is the delivery payload.
	Arg any
}

// Outbox buffers one shard's outgoing cross-shard messages for the
// current epoch window. Each shard appends only to its own outbox on its
// own worker goroutine; the coordinator drains all outboxes between
// windows.
type Outbox struct {
	msgs []Message
	// local counts co-located deliveries (see NoteLocal). Each shard
	// writes its outbox at every delivery and the outboxes sit side by
	// side in one slice: the padding keeps them on separate cache lines.
	local uint64
	_     [96]byte
}

// Ship appends one message; called from model code on the owning shard's
// goroutine.
//
//dtlint:hotpath
func (o *Outbox) Ship(m Message) {
	//dtlint:allow hotalloc: the outbox retains capacity across barriers; growth is amortized warm-up
	o.msgs = append(o.msgs, m)
}

// NoteLocal counts one co-located delivery: the owner scheduled it
// directly on its shard's engine instead of shipping it.
//
//dtlint:hotpath
func (o *Outbox) NoteLocal() { o.local++ }

// ShardedEngine runs several Engines in lockstep epochs under a
// conservative lookahead. Construct with NewShardedEngine, wire domains
// to shards (see netsim.Network.Partition), set the lookahead, and drive
// it with RunUntil/RunFor exactly like a plain Engine.
type ShardedEngine struct {
	shards    []*Engine
	outboxes  []Outbox
	lookahead Time
	now       Time

	hooks []func()

	// inbox is the coordinator's merge-sort scratch buffer, reused
	// across barriers.
	inbox []Message

	epochs, messages uint64 // see ShardStats

	stopped bool
}

// splitmix64 is the SplitMix64 finalizer; it turns (seed, shard) into a
// well-distributed, stable per-shard seed.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ShardSeed derives the RNG seed of shard i from the run seed. Shard 0
// uses the run seed itself so a one-shard topology reproduces the serial
// engine's random stream bit for bit; higher shards get independent
// SplitMix64-derived streams that depend only on (seed, i) — never on
// the shard count — so any grouping of domains draws the same numbers.
func ShardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return int64(splitmix64(uint64(seed) + uint64(i)))
}

// NewShardedEngine creates n engines seeded per ShardSeed.
func NewShardedEngine(seed int64, n int) *ShardedEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least one shard, got %d", n))
	}
	se := &ShardedEngine{
		shards:   make([]*Engine, n),
		outboxes: make([]Outbox, n),
	}
	for i := range se.shards {
		se.shards[i] = NewEngine(ShardSeed(seed, i))
	}
	return se
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard returns the i-th shard's engine. Model code owned by a shard
// schedules on it exactly as in a serial run.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Outbox returns the i-th shard's outbox for cross-shard shipping.
func (se *ShardedEngine) Outbox(i int) *Outbox { return &se.outboxes[i] }

// SetLookahead sets the epoch window length: the minimum propagation
// delay over links that can deliver to another shard. It must be positive
// before the first Run.
func (se *ShardedEngine) SetLookahead(d Time) { se.lookahead = d }

// Lookahead returns the configured epoch window length.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

// Now returns the coordinator's clock: the last completed horizon, or
// the end of the last window during a barrier. Model code inside shards
// must use its own engine's Now.
func (se *ShardedEngine) Now() Time { return se.now }

// Stop makes the run loop return ErrStopped at the next barrier.
func (se *ShardedEngine) Stop() { se.stopped = true }

// AddBarrierHook registers fn to run in coordinator context after every
// barrier exchange (shard free-list rebalancing, conservation checks).
func (se *ShardedEngine) AddBarrierHook(fn func()) { se.hooks = append(se.hooks, fn) }

// nextEventTime returns the earliest pending event instant across all
// shards, or TimeNever.
func (se *ShardedEngine) nextEventTime() Time {
	next := TimeNever
	for _, sh := range se.shards {
		if t := sh.NextEventTime(); t != TimeNever && (next == TimeNever || t < next) {
			next = t
		}
	}
	return next
}

// compareMessages orders barrier messages by (At, SchedAt, SrcKey,
// SrcSeq): firing time, sender-side scheduling instant, then a total
// sender order that depends only on the stable domain numbering, never on
// the domain-to-shard grouping.
func compareMessages(a, b Message) int {
	return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.SchedAt, b.SchedAt),
		cmp.Compare(a.SrcKey, b.SrcKey), cmp.Compare(a.SrcSeq, b.SrcSeq))
}

// exchange drains every outbox, sorts the union, and injects each
// message into its destination shard. Coordinator context only.
func (se *ShardedEngine) exchange() {
	se.inbox = se.inbox[:0]
	for i := range se.outboxes {
		o := &se.outboxes[i]
		se.inbox = append(se.inbox, o.msgs...)
		clear(o.msgs)
		o.msgs = o.msgs[:0]
	}
	se.messages += uint64(len(se.inbox))
	slices.SortFunc(se.inbox, compareMessages)
	for i := range se.inbox {
		m := &se.inbox[i]
		se.shards[m.Dst].InjectSrcArg(m.At, m.SchedAt, m.SrcKey, m.SrcSeq, m.Fn, m.Arg)
	}
	clear(se.inbox)
}

// RunUntil executes all shards up to and including horizon end. A single
// shard degenerates to the serial engine; otherwise the epoch loop below
// runs, interleaving parallel event windows with barrier exchanges.
func (se *ShardedEngine) RunUntil(end Time) error {
	if len(se.shards) == 1 {
		err := se.shards[0].RunUntil(end)
		if se.now < end {
			se.now = end
		}
		return err
	}
	if se.lookahead <= 0 {
		return errLookahead
	}
	se.stopped = false

	workers := se.startWorkers()
	defer workers.close()

	L := se.lookahead
	for {
		if se.stopped {
			return ErrStopped
		}
		tev := se.nextEventTime()
		if tev == TimeNever || tev > end {
			break
		}
		// Dispatch the epoch window [tev, h): up to the grid boundary
		// after tev, clipped to the horizon. Every cross-shard message
		// shipped at an instant s inside the window fires at
		// s + delay ≥ w·L + L ≥ h, so it is injectable at the closing
		// barrier before any shard reaches it.
		w := tev / L
		h := (w + tick) * L
		if end+tick < h {
			h = end + tick
		}
		se.epochs++
		if err := workers.dispatch(h); err != nil {
			return err
		}
		se.now = h - tick
		se.exchange()
		for _, hook := range se.hooks {
			hook()
		}
	}
	// Horizon reached: advance every shard's clock to end (events past
	// end stay queued, exactly like the serial engine's RunUntil).
	for _, sh := range se.shards {
		if err := sh.RunUntil(end); err != nil {
			return err
		}
	}
	se.now = end
	return nil
}

// RunFor advances the sharded simulation by d virtual time.
func (se *ShardedEngine) RunFor(d time.Duration) error {
	return se.RunUntil(se.now.Add(d))
}

// Stats merges the shard engines' counters: totals are summed and
// MaxPending is the maximum over shards (per-shard high-water marks do
// not align in time, so their sum would overstate the global mark).
func (se *ShardedEngine) Stats() EngineStats {
	var total EngineStats
	for _, sh := range se.shards {
		s := sh.Stats()
		total.Scheduled += s.Scheduled
		total.Processed += s.Processed
		total.Pending += s.Pending
		total.Cancelled += s.Cancelled
		total.Compactions += s.Compactions
		total.FreeHits += s.FreeHits
		total.FreeMisses += s.FreeMisses
		total.LaneHits += s.LaneHits
		if s.MaxPending > total.MaxPending {
			total.MaxPending = s.MaxPending
		}
	}
	return total
}

// ShardStats counts what the coordinator did. Every field is a pure
// function of the run and the domain assignment — none depends on
// goroutine scheduling — so two runs of one configuration agree exactly.
type ShardStats struct {
	// Epochs counts the windows dispatched, Messages the deliveries that
	// crossed shards through the barrier, and Colocated those scheduled
	// directly because source and destination shared a shard.
	Epochs, Messages, Colocated uint64
	// Events is the number of events each shard processed.
	Events []uint64
}

// ShardStats reports the coordinator's counters; call it between runs.
func (se *ShardedEngine) ShardStats() ShardStats {
	st := ShardStats{Epochs: se.epochs, Messages: se.messages, Events: make([]uint64, len(se.shards))}
	for i, sh := range se.shards {
		st.Colocated += se.outboxes[i].local
		st.Events[i] = sh.Stats().Processed
	}
	return st
}

// spinBudget bounds the busy polls of an epoch word before its reader
// parks: some 50 µs, a few windows' work and about what a park and wake
// cost. A quarter of it parked so often that the barrier's whole gain
// was lost (EXPERIMENTS.md, "Sharded single runs").
const spinBudget = 1 << 16

// gate is the hand-off word between the coordinator and one worker. The
// writer publishes a window number; the reader spins for it, then parks.
type gate struct {
	word   atomic.Uint64
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one token per park
}

// publish makes everything the writer did visible to the reader that
// next observes v, and wakes the reader if it parked.
//
//dtlint:shardboundary publish side of the epoch word: the atomic store orders the writer's work before the reader's, the token wakes a parked reader
func (g *gate) publish(v uint64) {
	g.word.Store(v)
	if g.parked.Load() {
		select {
		case g.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
}

// shardWorker is one shard's goroutine and its two gates: start carries
// the coordinator's window number to the worker, done carries it back.
type shardWorker struct {
	start, done gate
	n           uint64 // windows dispatched to this worker
	h           Time   // horizon of window n; TimeNever tells the worker to exit
	err         error  // outcome of window n
}

// shardWorkers is the pool of per-shard goroutines alive for one
// RunUntil call. Shard 0 always runs inline on the coordinator
// goroutine — it is the designated home of the run's root RNG consumers,
// and with n shards only n−1 extra goroutines are needed.
type shardWorkers struct {
	se   *ShardedEngine
	w    []shardWorker // indexed by shard; entry 0 is unused
	spin int
	wg   sync.WaitGroup
}

// startWorkers launches one goroutine per shard beyond the first. The
// gates are the only synchronization in the whole scheme: a window's
// start is published after the coordinator's injections and its end
// after the shard's last event, so barrier-context reads and writes of
// shard state need no locks. With fewer processors than shards a
// spinning reader could only delay the writer it waits for, so it parks
// at once.
//
//dtlint:shardboundary coordinator fan-out: one worker goroutine per shard beyond the inline shard 0
func (se *ShardedEngine) startWorkers() *shardWorkers {
	ws := &shardWorkers{se: se, w: make([]shardWorker, len(se.shards))}
	if runtime.GOMAXPROCS(0) >= len(se.shards) {
		ws.spin = spinBudget
	}
	for i := 1; i < len(se.shards); i++ {
		w, sh := &ws.w[i], se.shards[i]
		w.start.wake, w.done.wake = make(chan struct{}, 1), make(chan struct{}, 1)
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			for n := uint64(1); ; n++ {
				ws.await(&w.start, n)
				if w.h == TimeNever {
					return
				}
				w.err = sh.RunStrictUntil(w.h)
				w.done.publish(n)
			}
		}()
	}
	return ws
}

// dispatch runs every shard with work before h up to (but excluding) h
// and joins them all before returning.
//
//dtlint:shardboundary epoch fan-out/join: start gates bound the window, done gates publish shard state to the barrier
func (ws *shardWorkers) dispatch(h Time) error {
	for i := 1; i < len(ws.w); i++ {
		if t := ws.se.shards[i].NextEventTime(); t != TimeNever && t < h {
			ws.send(i, h)
		}
	}
	var err error
	if t := ws.se.shards[0].NextEventTime(); t != TimeNever && t < h {
		err = ws.se.shards[0].RunStrictUntil(h)
	}
	for i := 1; i < len(ws.w); i++ {
		// A worker not sent this window still shows its last one done.
		w := &ws.w[i]
		ws.await(&w.done, w.n)
		if w.err != nil && err == nil {
			err = w.err
		}
	}
	return err
}

// await returns once g reads v, after at most ws.spin busy polls and then
// parked. The reader announces the park before rechecking the word and
// the writer stores the word before checking for a park, so one of them
// always sees the other; a token left over from a park that was not
// needed only costs a recheck.
//
//dtlint:shardboundary wait side of the epoch word: bounded spin, then park on the wake channel
func (ws *shardWorkers) await(g *gate, v uint64) {
	for spin := ws.spin; g.word.Load() != v; {
		if spin > 0 {
			spin--
			continue
		}
		g.parked.Store(true)
		if g.word.Load() != v {
			<-g.wake
		}
		g.parked.Store(false)
	}
}

// send opens window h (or, with TimeNever, the exit) to worker i.
func (ws *shardWorkers) send(i int, h Time) {
	w := &ws.w[i]
	w.n++
	w.h = h
	w.start.publish(w.n)
}

// close tells every worker to exit and waits until all have.
func (ws *shardWorkers) close() {
	for i := 1; i < len(ws.w); i++ {
		ws.send(i, TimeNever)
	}
	ws.wg.Wait()
}

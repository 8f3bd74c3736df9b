package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// This file holds the oracle for the pending-event queue and for Timer.
// One interpreter turns a byte string into a program of scheduling,
// cancelling, timer and run calls and executes it on three machines:
//
//   - the Engine with its own Timer (the code under test);
//   - the Engine with a test-local eager timer that stops its Timer and
//     arms a fresh one on every rearm — cancel and requeue, the behaviour
//     rearm-in-place must be indistinguishable from;
//   - a reference engine that keeps its events in a plain slice and finds
//     the next one by scanning for the smallest four-field key, with the
//     same eager timer on top.
//
// The Engine hands out no event handle, so a program cancels the way
// model code does: by stopping a one-shot Timer it armed, which the
// reference models as an event it removes.
//
// All three must produce the same log — every handler run with the clock
// it saw, and after every run call the clock, the error and each timer's
// Armed/Deadline — and the same Scheduled, Processed and Cancelled totals.
//
// Handlers act on the queue too — enqueue nothing, one, two or three
// events, cancel in bulk, rearm timers, read the pending count, run the
// engine from inside — because each of those calls lands between the run
// loop taking an event and looking for the next.
//
// The Engine keeps its pending set in a heap and up to maxLanes sorted
// lanes (see Engine.insert). Which of them an event waits in must not show
// in any log; engineMachine checks the lanes' own invariants in audit and
// records in laneReach what a program made them do, so that
// TestOracleSeedsReachLanes can hold the committed programs to it.

// oracleTimer is the part of Timer the programs drive.
type oracleTimer interface {
	Reset(d time.Duration)
	ResetAt(at Time)
	Stop()
	Armed() bool
	Deadline() Time
}

// machine is one engine behind the calls a program makes.
type machine interface {
	Now() Time
	// schedule enqueues fn through call under the source key srcKey, which
	// only ScheduleSrcArg reads (the scheduling instant and the sequence
	// number are the machine's own). A callTimer event is the wake-up of a
	// fresh one-shot timer, and schedule returns its Stop; every other call
	// returns nil, as nothing can cancel its event.
	schedule(call int, at Time, srcKey int, fn func()) (stop func())
	newTimer(fn func()) oracleTimer
	runUntil(horizon Time) error
	runFor(d time.Duration) error
	run() error
	stop()
	counters() (scheduled, processed, cancelled uint64)
	// pending returns the number of live events queued, or a negative
	// number if the machine's own readers of the queue disagree.
	pending() int
	// audit checks the machine's internal bookkeeping, between calls and
	// from inside handlers. It must not change the machine.
	audit() error
}

// The six scheduling calls a program chooses between.
const (
	callSchedule = iota
	callScheduleArg
	callScheduleSrcArg
	callInjectArg
	callAfterArg
	// A fresh one-shot Timer armed with ResetAt.
	callTimer
)

// laneReach is a set of things a program made the Engine's lanes do.
type laneReach uint

const (
	// A slot was appended to a lane.
	reachAppend laneReach = 1 << iota
	// A lane refused a ScheduleSrcArg that ties with its tail on the instant
	// and the scheduling instant and carries a smaller source key.
	reachRefusedSrcKey
	// A lane refused an InjectArg that ties with its tail on the instant,
	// its scheduling instant zero older than the tail's.
	reachRefusedInject
	// A lane's head and the heap's root fire at the same instant.
	reachTieHeap
	// Two lanes' heads fire at the same instant.
	reachTieLanes
	// A live timer wake-up ahead of its rearmed deadline heads a lane: the
	// run loop will move it from there.
	reachStaleWake
	// A cancelled event heads a lane: the run loop will skip it there.
	reachDeadHead
	// A compaction removed entries from a lane.
	reachCompact
	// A delay earned a lane with every lane taken and stayed in the heap.
	reachAllTaken
	// A handler ran the engine from inside.
	reachNestedRun
)

var laneReachNames = []string{
	"append", "append refused for a smaller source key", "inject refused for an older scheduling instant",
	"lane head ties with heap root", "two lane heads tie", "stale wake-up at a lane head",
	"cancelled event at a lane head", "compaction over a non-empty lane",
	"lane earned with all taken", "nested run from a handler",
}

func (r laneReach) String() string {
	var names []string
	for i, name := range laneReachNames {
		if r&(1<<uint(i)) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, "; ")
}

// engineMachine drives the real Engine.
type engineMachine struct {
	*Engine
	eager bool
	// reach accumulates what the lanes were seen doing; depth counts the
	// run calls in progress.
	reach *laneReach
	depth *int
}

func newEngineMachine(eager bool) engineMachine {
	return engineMachine{Engine: NewEngine(1), eager: eager, reach: new(laneReach), depth: new(int)}
}

// laneFor returns the lane that collects delay d, or nil.
func (m engineMachine) laneFor(d Time) *lane {
	for i := 0; i < m.nLanes; i++ {
		if m.laneD[i] == d {
			return &m.lanes[i]
		}
	}
	return nil
}

// noteHeads records what the heads of the lanes show.
func (m engineMachine) noteHeads() {
	for i := 0; i < m.nLanes; i++ {
		l := &m.lanes[i]
		if l.len() == 0 {
			continue
		}
		head := l.at(0)
		if len(m.queue.items) > 0 && m.queue.items[0].at == head.at {
			*m.reach |= reachTieHeap
		}
		for j := 0; j < i; j++ {
			if m.laneAt[j] == head.at {
				*m.reach |= reachTieLanes
			}
		}
		if t := head.ev.timer; t != nil && t.seq != head.ev.seq && !head.ev.cancelled {
			*m.reach |= reachStaleWake
		}
		if head.ev.cancelled {
			*m.reach |= reachDeadHead
		}
	}
}

func (m engineMachine) schedule(call int, at Time, srcKey int, fn func()) func() {
	// What the lane that collects this delay ends in, if there is one, says
	// why an append was refused; a delay that no lane collects earns one
	// with this miss if its candidate counter is one short.
	d := at - m.now
	var tail *Event
	l := m.laneFor(d)
	if l != nil && l.len() > 0 {
		tail = l.at(l.len() - 1).ev
	}
	earns := false
	for _, c := range m.cands {
		earns = earns || l == nil && c.d == d && c.n == laneGrantAfter-1
	}
	hits, taken := m.laneHits(), m.nLanes == maxLanes
	stop := m.scheduleCall(call, at, srcKey, fn)
	switch {
	case m.laneHits() > hits:
		*m.reach |= reachAppend
	case earns && taken:
		*m.reach |= reachAllTaken
	case tail == nil || tail.at != at:
	case call == callScheduleSrcArg && tail.schedAt == m.now && int32(srcKey) < tail.srcKey:
		*m.reach |= reachRefusedSrcKey
	case call == callInjectArg && tail.schedAt > TimeZero:
		*m.reach |= reachRefusedInject
	}
	m.noteHeads()
	if stop == nil {
		return nil
	}
	return func() {
		inLanes, compactions := m.lanedSlots(), m.compactions
		stop()
		if m.compactions > compactions && m.lanedSlots() < inLanes {
			*m.reach |= reachCompact
		}
		m.noteHeads()
	}
}

// lanedSlots counts the slots in the lanes.
func (m engineMachine) lanedSlots() (n int) {
	for i := 0; i < m.nLanes; i++ {
		n += m.lanes[i].len()
	}
	return n
}

func (m engineMachine) scheduleCall(call int, at Time, srcKey int, fn func()) func() {
	viaArg := func(any) { fn() }
	switch call {
	case callSchedule:
		m.Schedule(at, fn)
	case callScheduleArg:
		m.ScheduleArg(at, viaArg, nil)
	case callScheduleSrcArg:
		m.ScheduleSrcArg(at, srcKey, viaArg, nil)
	case callInjectArg:
		m.InjectArg(at, viaArg, nil)
	case callAfterArg:
		m.AfterArg((at - m.now).Duration(), viaArg, nil)
	case callTimer:
		t := NewTimer(m.Engine, fn)
		t.ResetAt(at)
		return t.Stop
	}
	return nil
}

func (m engineMachine) newTimer(fn func()) oracleTimer {
	if m.eager {
		return &eagerTimer{m: m, fn: fn}
	}
	return NewTimer(m.Engine, fn)
}

func (m engineMachine) runUntil(horizon Time) error {
	return m.nest(func() error { return m.RunUntil(horizon) })
}

func (m engineMachine) runFor(d time.Duration) error {
	return m.nest(func() error { return m.RunFor(d) })
}

func (m engineMachine) run() error { return m.nest(m.Run) }

// nest makes a run call, noting one made from a handler.
func (m engineMachine) nest(run func() error) error {
	if *m.depth > 0 {
		*m.reach |= reachNestedRun
	}
	*m.depth++
	defer func() { *m.depth-- }()
	return run()
}

func (m engineMachine) stop() { m.Stop() }

func (m engineMachine) counters() (uint64, uint64, uint64) {
	s := m.Stats()
	return s.Scheduled, s.Processed, s.Cancelled
}

// pending counts live entries: Pending less the dead ones, which is what
// the reference holds.
func (m engineMachine) pending() int {
	if m.Pending() != len(m.queue.items)+m.lanedSlots() {
		return -2
	}
	return m.Pending() - m.cancelled
}

// audit checks what no log line shows: the heap property under the full
// key, every lane strictly ascending under it with its head's instant
// cached, the inline instants, the pending and dead-entry counts that
// drive compaction, and the timer back-pointers.
func (m engineMachine) audit() error {
	m.noteHeads()
	h := &m.queue
	queued, dead := 0, 0
	check := func(where string, i int, s heapSlot) error {
		switch {
		case s.at != s.ev.at:
			return fmt.Errorf("%s slot %d: inline instant %d, event fires at %d", where, i, s.at, s.ev.at)
		case s.ev.timer != nil && s.ev.timer.wake != s.ev:
			return fmt.Errorf("%s slot %d: timer does not point back at its wake-up", where, i)
		}
		queued++
		if s.ev.cancelled {
			dead++
		}
		return nil
	}
	for i, s := range h.items {
		if err := check("heap", i, s); err != nil {
			return err
		}
		if i > 0 && h.less(s, h.items[(i-1)/4]) {
			return fmt.Errorf("heap slot %d sorts before its parent", i)
		}
	}
	for i := range m.lanes {
		l, where := &m.lanes[i], fmt.Sprintf("lane %d", i)
		switch {
		case i >= m.nLanes && (l.buf != nil || l.len() != 0):
			return fmt.Errorf("%s is in use beyond the %d granted", where, m.nLanes)
		case i >= m.nLanes:
			continue
		case len(l.buf)&(len(l.buf)-1) != 0 || l.len() > len(l.buf):
			return fmt.Errorf("%s holds %d slots in a ring of %d", where, l.len(), len(l.buf))
		}
		head := laneEmpty
		for k := 0; k < l.len(); k++ {
			if err := check(where, k, l.at(k)); err != nil {
				return err
			}
			if k == 0 {
				head = l.at(0).at
			} else if !h.less(l.at(k-1), l.at(k)) {
				return fmt.Errorf("%s slot %d does not sort after slot %d", where, k, k-1)
			}
		}
		if m.laneAt[i] != head {
			return fmt.Errorf("%s: cached head instant %d, want %d", where, m.laneAt[i], head)
		}
	}
	switch {
	case queued != m.Pending():
		return fmt.Errorf("%d entries queued, Pending reports %d", queued, m.Pending())
	case dead != m.cancelled:
		return fmt.Errorf("%d dead entries queued, engine counts %d", dead, m.cancelled)
	}
	return nil
}

// eagerTimer is the timer the engine had before rearm-in-place: every
// Reset stops the pending deadline and arms a fresh one-shot timer (on the
// reference, an event it can remove).
type eagerTimer struct {
	m     machine
	fn    func()
	stop  func()
	at    Time
	armed bool
}

func (t *eagerTimer) Reset(d time.Duration) { t.ResetAt(t.m.Now().Add(d)) }

func (t *eagerTimer) ResetAt(at Time) {
	t.Stop()
	t.at, t.armed = at, true
	t.stop = t.m.schedule(callTimer, at, 0, func() {
		t.armed = false
		t.fn()
	})
}

func (t *eagerTimer) Stop() {
	if t.armed {
		t.stop()
		t.armed = false
	}
}

func (t *eagerTimer) Armed() bool { return t.armed }

func (t *eagerTimer) Deadline() Time {
	if !t.armed {
		return TimeNever
	}
	return t.at
}

// refEvent is one entry of the reference engine.
type refEvent struct {
	at, schedAt Time
	srcKey      int
	seq         uint64
	fn          func()
	done        bool // fired or cancelled
}

func (a *refEvent) before(b *refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.schedAt != b.schedAt:
		return a.schedAt < b.schedAt
	case a.srcKey != b.srcKey:
		return a.srcKey < b.srcKey
	}
	return a.seq < b.seq
}

// refMachine is the reference: an unordered slice scanned for its
// smallest key. A stopped one-shot timer's event is removed at once, so
// it has no lazy state to get wrong.
type refMachine struct {
	now       Time
	queue     []*refEvent
	nextSeq   uint64
	stopped   bool
	scheduled uint64
	processed uint64
	cancelled uint64
}

func (m *refMachine) Now() Time { return m.now }

func (m *refMachine) schedule(call int, at Time, srcKey int, fn func()) func() {
	ev := &refEvent{at: at, schedAt: m.now, srcKey: unkeyedSrc, seq: m.nextSeq, fn: fn}
	switch call {
	case callInjectArg:
		ev.schedAt = TimeZero
	case callScheduleSrcArg:
		ev.srcKey = srcKey
	}
	m.nextSeq++
	m.scheduled++
	m.queue = append(m.queue, ev)
	if call != callTimer {
		return nil
	}
	return func() {
		if !ev.done {
			ev.done = true
			m.cancelled++
			m.remove(ev)
		}
	}
}

func (m *refMachine) remove(ev *refEvent) {
	for i, q := range m.queue {
		if q == ev {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return
		}
	}
}

func (m *refMachine) newTimer(fn func()) oracleTimer { return &eagerTimer{m: m, fn: fn} }

func (m *refMachine) runUntil(horizon Time) error { return m.advance(horizon, true) }

func (m *refMachine) runFor(d time.Duration) error { return m.runUntil(m.now.Add(d)) }

// run drains the queue and leaves the clock at the last event, like
// Engine.Run.
func (m *refMachine) run() error { return m.advance(math.MaxInt64, false) }

// advance runs every event through horizon and then, toHorizon, moves the
// clock there.
func (m *refMachine) advance(horizon Time, toHorizon bool) error {
	m.stopped = false
	for {
		if m.stopped {
			return ErrStopped
		}
		var next *refEvent
		for _, ev := range m.queue {
			if next == nil || ev.before(next) {
				next = ev
			}
		}
		if next == nil || next.at > horizon {
			break
		}
		m.remove(next)
		next.done = true
		m.now = next.at
		m.processed++
		next.fn()
	}
	if toHorizon && m.now < horizon {
		m.now = horizon
	}
	return nil
}

func (m *refMachine) stop() { m.stopped = true }

func (m *refMachine) counters() (uint64, uint64, uint64) {
	return m.scheduled, m.processed, m.cancelled
}

func (m *refMachine) pending() int { return len(m.queue) }

func (m *refMachine) audit() error { return nil }

// Offsets a program picks from: short, with repeats, so exact ties on the
// firing instant are the common case and not the exception.
var oracleDeltas = [...]time.Duration{0, 0, 1, 1, 2, 3, 7, 20}

// oracleStride spreads the offsets into classes: an opcode byte of
// 12·c + op adds c strides to the offset it picks, so a program can
// schedule at more distinct delays than the Engine has lanes. The stride
// is longer than every offset, so no two classes share a delay.
const oracleStride = 32

const oracleTimers = 3

// execProgram interprets prog on m and returns the log.
func execProgram(m machine, prog []byte) []string {
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }

	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		b := prog[pos]
		pos++
		return int(b)
	}

	var (
		// stops holds the Stop of every one-shot timer the program and its
		// handlers armed, in arming order.
		stops  []func()
		timers [oracleTimers]oracleTimer
		nextID int
		// budget bounds the work handlers start on their own, so no
		// program runs away.
		budget = 200
	)
	check := func() {
		if err := m.audit(); err != nil {
			logf("audit: %v", err)
		}
	}
	var spawn func(call int, at Time, srcKey int)
	// handlerAct is what the remaining handlers do, by id mod 16; the ids
	// it leaves out enqueue nothing.
	handlerAct := func(act, id int) {
		switch act {
		case 1:
			logf("  pending=%d", m.pending())
		case 2, 3, 4, 12:
			// Two events, or three (3, 4).
			n := 2
			if act == 3 || act == 4 {
				n = 3
			}
			logf("  enqueue %d", n)
			for k := 0; k < n; k++ {
				at := m.Now().Add(oracleDeltas[(id+k)%len(oracleDeltas)])
				spawn((id+k)%(callTimer+1), at, id%3)
			}
		case 6, 11:
			// Every other one-shot timer, evens or odds by the handler's own
			// parity: the second kind to run finds the first's dead entries
			// and tips the engine into compaction from inside a handler that
			// has enqueued nothing.
			logf("  cancel every other")
			for i := id % 2; i < len(stops); i += 2 {
				stops[i]()
			}
		case 8, 9:
			// Out, then in to an earlier instant: the second rearm cannot
			// be served by the wake-up of the first.
			logf("  rearm earlier")
			t := timers[id%oracleTimers]
			t.Reset(20)
			t.Reset(time.Duration(act - 8))
		case 10, 15:
			// Run the engine from inside the handler, before it has enqueued
			// anything: d ahead, by RunFor (10) or by RunUntil (15).
			d := oracleDeltas[id%len(oracleDeltas)]
			run := func() error { return m.runUntil(m.Now().Add(d)) }
			if act == 10 {
				run = func() error { return m.runFor(d) }
			}
			err := run()
			logf("  nested run now=%d stopped=%v", m.Now(), errors.Is(err, ErrStopped))
		}
	}
	handler := func(id int) func() {
		return func() {
			logf("fire %d now=%d", id, m.Now())
			check()
			defer check()
			if budget <= 0 {
				return
			}
			budget--
			d := oracleDeltas[id%len(oracleDeltas)]
			switch {
			case id%5 == 0:
				spawn(callSchedule, m.Now().Add(d), 0)
			case id%7 == 0:
				timers[id%oracleTimers].Reset(d)
			case id%11 == 0 && len(stops) > 0:
				stops[id%len(stops)]()
			case id%13 == 0:
				m.stop()
			default:
				handlerAct(id%16, id)
			}
		}
	}
	spawn = func(call int, at Time, srcKey int) {
		if stop := m.schedule(call, at, srcKey, handler(nextID)); stop != nil {
			stops = append(stops, stop)
		}
		nextID++
	}
	for i := range timers {
		i := i
		var rearms int
		timers[i] = m.newTimer(func() {
			logf("timer %d now=%d", i, m.Now())
			check()
			defer check()
			if rearms++; rearms%3 == 0 && budget > 0 {
				budget--
				timers[(i+1)%oracleTimers].Reset(oracleDeltas[rearms%len(oracleDeltas)])
			}
		})
	}
	observe := func(what string, err error) {
		logf("%s now=%d stopped=%v", what, m.Now(), errors.Is(err, ErrStopped))
		for i, t := range timers {
			logf("  timer %d armed=%v deadline=%d", i, t.Armed(), t.Deadline())
		}
		check()
	}

	for pos < len(prog) {
		op := next()
		d := oracleDeltas[next()%len(oracleDeltas)] + time.Duration(op/12)*oracleStride
		at := m.Now().Add(d)
		switch op % 12 {
		case callSchedule, callScheduleArg, callScheduleSrcArg, callInjectArg, callAfterArg, callTimer:
			// The source key comes from the program, not from a counter, so
			// its order disagrees with scheduling order and it gets to
			// decide a tie.
			spawn(op%12, at, next()%3)
		case 6:
			if len(stops) > 0 {
				stops[next()%len(stops)]()
			}
		case 7:
			// Stop every other one-shot timer: enough dead entries at once
			// to push the engine into compaction.
			for i := next() % 2; i < len(stops); i += 2 {
				stops[i]()
			}
		case 8:
			// Timer x%3 by the offset (Reset) or by the instant (ResetAt),
			// as x/3 is even or odd.
			x := next()
			if t := timers[x%oracleTimers]; x/oracleTimers%2 == 0 {
				t.Reset(d)
			} else {
				t.ResetAt(at)
			}
		case 9:
			timers[next()%oracleTimers].Stop()
		case 10:
			observe("RunUntil", m.runUntil(at))
		case 11:
			observe("RunFor", m.runFor(d))
		}
	}
	// Drain; a handler may stop the run, so resume until it ends.
	for i := 0; ; i++ {
		err := m.run()
		observe("Run", err)
		if err == nil {
			break
		}
		if i > len(prog)+budget+1000 {
			panic("oracle: drain does not terminate")
		}
	}
	s, p, c := m.counters()
	logf("scheduled=%d processed=%d cancelled=%d", s, p, c)
	return log
}

// checkProgram runs prog on all three machines and compares the logs.
func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	got := execProgram(newEngineMachine(false), prog)
	for name, m := range map[string]machine{
		"engine with eager timers": newEngineMachine(true),
		"reference":                &refMachine{},
	} {
		want := execProgram(m, prog)
		if reflect.DeepEqual(got, want) {
			continue
		}
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				w := "<end of log>"
				if i < len(want) {
					w = want[i]
				}
				t.Fatalf("program %x: diverges from %s at log line %d:\n got: %s\nwant: %s", prog, name, i, got[i], w)
			}
		}
		t.Fatalf("program %x: log has %d lines, %s has %d", prog, len(got), name, len(want))
	}
}

// oracleSeeds are hand-written programs for the fuzz corpus and the
// property test. An instruction is an opcode byte, an index into
// oracleDeltas, and the operand its case in execProgram reads, if any.
var oracleSeeds = [][]byte{
	{},      // drain an empty queue
	{10, 3}, // RunUntil on an empty queue
	{0, 4, 0, 10, 7},
	// One event from each scheduling call, all tied on the instant; a run
	// through it by RunFor, then by RunUntil.
	{0, 2, 0, 1, 2, 0, 2, 2, 1, 3, 2, 0, 4, 2, 0, 5, 2, 0, 11, 2, 10, 2},
	// A timer armed, rearmed in place, overtaken by the clock, stopped.
	{8, 5, 0, 8, 7, 0, 10, 5, 9, 0, 0, 10, 7},
	// Rearmed to an earlier deadline: lazy cancel and a second wake-up.
	{8, 7, 1, 8, 4, 4, 10, 7},
	// Stopped, then revived by a later rearm.
	{8, 6, 2, 9, 0, 2, 8, 7, 5, 10, 7},
	// Fourteen events: the handler of the last (id 13) stops the run.
	join(times(14, 0, 4, 0), []byte{10, 7}),
	// Enough one-shot timers stopped at once to compact the queue.
	join(times(141, 5, 6, 0), []byte{7, 0, 0, 10, 7}),
}

// handlerSeeds reach what handlers do to the queue (handlerAct);
// TestOracleSeedsReachHandlerActs holds them to it.
var handlerSeeds = [][]byte{
	// Thirteen events tied on one instant, ids 0–12, and no stop: handlers
	// that enqueue nothing, one, two and three events, a rearm to an
	// earlier instant and a pending count, drained by Run alone.
	times(13, 0, 4, 0),
	// 141 one-shot timers on one instant and no stop outside a handler: id
	// 6 stops the evens, id 27 the odds — the first of those tips the
	// engine into compaction from inside a handler that has enqueued
	// nothing.
	join(times(141, 5, 6, 0), []byte{10, 7}),
	// All three timers armed far out, then twenty events spread over four
	// instants and runs that stop between them: earlier rearms and pending
	// counts against queued wake-ups, stale ones among them.
	join([]byte{8, 7, 0, 8, 7, 1, 8, 7, 5}, times(5, 0, 2, 0, 1, 4, 0, 2, 5, 1, 3, 6, 0),
		[]byte{11, 2, 11, 5, 10, 6}),
	// Thirty-two one-shot timers on one instant, all in the heap, and all
	// but the last, id 31, silenced: its handler runs the engine from
	// inside.
	join(times(32, 5, 4, 0), silence(0, 31)),
}

// join concatenates program fragments.
func join(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// times repeats a run of instructions n times.
func times(n int, instrs ...byte) []byte { return bytes.Repeat(instrs, n) }

// silence stops the one-shot timers armed [from, to)-th — the events with
// those ids in a seed that arms nothing else first — so that their
// handlers, which cancel in bulk, stop the run and rearm timers, do not
// disturb what the seed is after. It must stay under compactMinCancelled.
func silence(from, to int) []byte {
	var prog []byte
	for id := from; id < to; id++ {
		prog = append(prog, 6, 0, byte(id))
	}
	return prog
}

// laneSeeds reach what the Engine's lanes do, each entry the things listed
// with it; TestOracleSeedsReachLanes holds them to it. A delay gets its
// lane on its laneGrantAfter-th miss, so 33 events scheduled one delay
// ahead of one instant on an empty engine put 32 in the heap and the last
// in a new lane.
var laneSeeds = []struct {
	prog  []byte
	reach laneReach
}{
	// Forty events on one instant: the last eight are appended to the lane
	// the others earned, whose head then ties with the heap's root.
	{join(times(40, 0, 4, 0), []byte{10, 7}), reachAppend | reachTieHeap},
	// A keyed delivery from source 2 goes to the lane's tail; one from
	// source 0 at the same instant sorts before it and is refused.
	{join(times(33, 0, 4, 0), []byte{2, 4, 2, 2, 4, 0, 10, 7}), reachAppend | reachRefusedSrcKey},
	// The clock at 7; a lane of events scheduled there for 9; an injection
	// for 9, stamped 0, sorts before them all.
	{join([]byte{10, 6}, times(33, 0, 4, 0), []byte{3, 4, 0, 10, 7}), reachAppend | reachRefusedInject},
	// A lane of delay 3 filled at instant 0 and one of delay 2 filled at
	// instant 1: both heads fire at 3.
	{join(times(33, 0, 5, 0), []byte{10, 2}, times(33, 0, 4, 0), []byte{10, 7}), reachTieLanes},
	// The lane of delay 2 earned by the wake-ups of one-shot timers 0–32,
	// which are silenced and drained; timer 0 armed 2 ahead — its wake-up
	// is the lane's only entry — and pushed out to 20; scheduling one event
	// far ahead is what looks at the lane heads.
	{join(times(33, 5, 4, 0), silence(0, 33), []byte{10, 7, 8, 4, 0, 8, 7, 0, 36, 7, 0, 10, 7, 10, 7}),
		reachAppend | reachStaleWake},
	// The lane's only entry stopped: the run loop finds it at the head.
	{join(times(33, 5, 4, 0), []byte{6, 0, 32, 10, 7}), reachAppend | reachDeadHead},
	// 141 one-shot timers on one instant, 109 of them in a lane, and every
	// other one stopped at once.
	{join(times(141, 5, 6, 0), []byte{7, 0, 0, 10, 7}), reachAppend | reachCompact},
	// Nine delay classes of 33 events: the first eight fill every lane, the
	// ninth earns one with all taken and stays in the heap.
	{join(times(33, 0, 4, 0), times(33, 12, 4, 0), times(33, 24, 4, 0), times(33, 36, 4, 0),
		times(33, 48, 4, 0), times(33, 60, 4, 0), times(33, 72, 4, 0), times(33, 84, 4, 0),
		times(33, 96, 4, 0)), reachAppend | reachAllTaken},
	// Fifty-nine one-shot timers on one instant and all but the last, id
	// 58, in a lane, silenced: its handler runs the engine from inside.
	{join(times(59, 5, 4, 0), silence(0, 58)), reachAppend | reachNestedRun},
}

// allSeeds is every hand-written program.
func allSeeds() [][]byte {
	seeds := append(append([][]byte{}, oracleSeeds...), handlerSeeds...)
	for _, s := range laneSeeds {
		seeds = append(seeds, s.prog)
	}
	return seeds
}

// randomProgram draws a program biased by flavour: 0 uniform, 1 heavy on
// timers, 2 heavy on scheduling followed by mass cancellation, 3 bursts of
// one scheduling call at one delay — what earns and fills a lane — among
// uniform instructions.
func randomProgram(rng *rand.Rand, flavour, n int) []byte {
	prog := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		op := rng.Intn(12)
		switch {
		case flavour == 3 && rng.Intn(8) == 0:
			op, delta := rng.Intn(callTimer+1)+12*rng.Intn(3), rng.Intn(256)
			for burst := 10 + rng.Intn(60); burst > 0 && i < n; burst-- {
				prog = append(prog, byte(op), byte(delta), byte(rng.Intn(256)))
				i++
			}
			continue
		case flavour == 1 && rng.Intn(2) == 0:
			op = 8 + rng.Intn(2)
		case flavour == 2 && i < n*3/4:
			op = rng.Intn(callTimer + 1)
		case flavour == 2 && rng.Intn(3) == 0:
			op = 7
		}
		prog = append(prog, byte(op), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return prog
}

// TestOracleEventQueueAndTimer is the seeded property test over random
// programs, long enough (flavour 2) to cross the compaction threshold.
func TestOracleEventQueueAndTimer(t *testing.T) {
	for _, prog := range allSeeds() {
		checkProgram(t, prog)
	}
	rng := rand.New(rand.NewSource(12))
	rounds := 400
	if testing.Short() {
		rounds = 60
	}
	for i := 0; i < rounds; i++ {
		checkProgram(t, randomProgram(rng, i%4, 1+rng.Intn(250)))
	}
}

// TestOracleSeedsReachHandlerActs checks that every handlerSeeds entry
// but the last runs each thing a handler can do to the queue, that the
// second compacts — its program cancels nothing itself, so the compaction
// happened inside a handler — and that the last runs the engine from a
// handler.
func TestOracleSeedsReachHandlerActs(t *testing.T) {
	for i, prog := range handlerSeeds {
		acts := []string{"  enqueue 2", "  enqueue 3", "  cancel every other", "  rearm earlier", "  pending="}
		if i == 3 {
			acts = []string{"  nested run"}
		}
		m := newEngineMachine(false)
		e := m.Engine
		log := strings.Join(execProgram(m, prog), "\n")
		for _, act := range acts {
			if !strings.Contains(log, act) {
				t.Errorf("seed %d never logs %q", i, act)
			}
		}
		if got := e.Stats().Compactions; (got > 0) != (i == 1) {
			t.Errorf("seed %d: %d compactions, want some only for seed 1", i, got)
		}
	}
}

// TestOracleSeedsReachLanes checks that every laneSeeds entry makes the
// lanes do what it is there for, and that the seeds which leave a dead or
// a stale entry at a lane's head never compact — so the run loop, and not
// a compaction, is what took it from there.
func TestOracleSeedsReachLanes(t *testing.T) {
	var all laneReach
	for i, seed := range laneSeeds {
		m := newEngineMachine(false)
		execProgram(m, seed.prog)
		if missing := seed.reach &^ *m.reach; missing != 0 {
			t.Errorf("lane seed %d never reaches: %v (it reaches: %v)", i, missing, *m.reach)
		}
		if got := m.Stats().Compactions; got > 0 && seed.reach&(reachStaleWake|reachDeadHead) != 0 {
			t.Errorf("lane seed %d: %d compactions, want none", i, got)
		}
		if hits := m.Stats().LaneHits; (hits > 0) != (*m.reach&reachAppend != 0) {
			t.Errorf("lane seed %d: LaneHits = %d, appends seen: %v", i, hits, *m.reach&reachAppend != 0)
		}
		all |= seed.reach
	}
	if want := laneReach(1)<<uint(len(laneReachNames)) - 1; all != want {
		t.Errorf("no lane seed is held to: %v", want&^all)
	}
}

// FuzzEngineQueue explores programs beyond the seeded ones.
func FuzzEngineQueue(f *testing.F) {
	for _, prog := range allSeeds() {
		f.Add(prog)
	}
	rng := rand.New(rand.NewSource(34))
	for flavour := 0; flavour < 4; flavour++ {
		f.Add(randomProgram(rng, flavour, 120))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip("longer programs only repeat what shorter ones reach")
		}
		checkProgram(t, prog)
	})
}

// TestHeapEdges walks the queue through its smallest sizes — where a
// 4-ary heap has no, one, or a partly filled set of children — with every
// event tied on its instant, compacting all-dead, part-dead and empty
// queues directly (the threshold would never compact queues this small).
func TestHeapEdges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 6} {
		for dead := 0; dead <= n; dead++ {
			e := NewEngine(1)
			var timers []*Timer
			var got, want []int
			for i := 0; i < n; i++ {
				i := i
				timers = append(timers, NewTimer(e, func() { got = append(got, i) }))
				timers[i].ResetAt(7)
			}
			// Stop the first dead timers, the heap's root among them.
			for i := 0; i < n; i++ {
				if i < dead {
					timers[i].Stop()
				} else {
					want = append(want, i)
				}
			}
			e.compact()
			if e.Pending() != n-dead {
				t.Fatalf("n=%d dead=%d: Pending = %d after compaction, want %d", n, dead, e.Pending(), n-dead)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dead=%d: ran %v, want %v", n, dead, got, want)
			}
		}
	}

	// Handlers that enqueue nothing, on a queue of one and of two: each
	// sees Pending equal to the slots still queued, as the run loop popped
	// its event before running it, down to an empty slice.
	for _, n := range []int{1, 2} {
		e := NewEngine(1)
		for i := 0; i < n; i++ {
			left := n - 1 - i
			e.Schedule(7, func() {
				if e.Pending() != left || len(e.queue.items) != left {
					t.Fatalf("n=%d: handler sees Pending=%d over %d slots, want %d and %d",
						n, e.Pending(), len(e.queue.items), left, left)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if s := e.Stats(); len(e.queue.items) != 0 || s.Processed != uint64(n) || s.MaxPending != n {
			t.Fatalf("n=%d: %d slots, stats %+v after the drain", n, len(e.queue.items), s)
		}
	}

	// Stop from a handler that enqueued nothing: what the caller reads
	// next is the queue that is left.
	e := NewEngine(1)
	ran := 0
	e.Schedule(1, e.Stop)
	e.Schedule(2, func() { ran++ })
	if err := e.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if len(e.queue.items) != 1 || e.Pending() != 1 || e.queue.items[0].at != 2 {
		t.Fatalf("after Stop: %d slots, Pending=%d; want the event at 2 alone", len(e.queue.items), e.Pending())
	}
	if err := e.Run(); err != nil || ran != 1 {
		t.Fatalf("resumed Run = %v with %d events run, want nil and 1", err, ran)
	}
}

// TestTimerStaleWakeUpsLeaveClockAlone pins what the run loop does with a
// wake-up that is not an event: it neither advances the clock nor counts.
func TestTimerStaleWakeUpsLeaveClockAlone(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })

	// Stopped before its wake-up surfaces: draining the queue is a no-op.
	tm.Reset(100)
	tm.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 || e.Stats().Processed != 0 || e.Pending() != 0 {
		t.Fatalf("after draining a stopped timer: now=%v processed=%d pending=%d, want all 0",
			e.Now(), e.Stats().Processed, e.Pending())
	}

	// Rearmed in place past the horizon: the wake-up at 100 is moved, not
	// fired, and the clock reads the horizon.
	tm.Reset(100)
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	tm.Reset(250) // deadline 300, wake-up still queued at 100
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after a rearm in place, want 1", e.Pending())
	}
	if err := e.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	if fires != 0 || e.Now() != 200 || e.Stats().Processed != 0 {
		t.Fatalf("wake-up ahead of its deadline: fires=%d now=%v processed=%d, want 0, 200, 0",
			fires, e.Now(), e.Stats().Processed)
	}
	if got := tm.Deadline(); got != 300 {
		t.Fatalf("Deadline = %v, want 300", got)
	}
	if len(e.queue.items) != 1 || e.queue.items[0].at != 300 {
		t.Fatalf("queue holds %d slots once the wake-up was moved, want it alone at 300", len(e.queue.items))
	}

	// Stopped, revived by a later rearm, stopped again: still nothing
	// fires, and Run leaves the clock where RunUntil put it.
	tm.Stop()
	tm.Reset(400)
	tm.Stop()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 0 || e.Now() != 200 {
		t.Fatalf("after draining stale wake-ups: fires=%d now=%v, want 0 and 200", fires, e.Now())
	}
	s := e.Stats()
	if s.Scheduled != 4 || s.Cancelled != 4 || s.Processed != 0 {
		t.Fatalf("Stats = %+v, want 4 scheduled, 4 cancelled, 0 processed", s)
	}
}

// TestRunUntilAfterStop is the regression test for a clock that jumped to
// the horizon of an interrupted run: the resumed run then stepped it
// backwards to the events still pending (a panic under -tags invariants).
func TestRunUntilAfterStop(t *testing.T) {
	e := NewEngine(1)
	var seen []Time
	e.Schedule(1, func() {
		seen = append(seen, e.Now())
		e.Stop()
	})
	e.Schedule(5, func() { seen = append(seen, e.Now()) })
	if err := e.RunUntil(100); !errors.Is(err, ErrStopped) {
		t.Fatalf("RunUntil = %v, want ErrStopped", err)
	}
	if e.Now() != 1 {
		t.Fatalf("clock = %v after a stopped RunUntil(100), want 1 (the last event that ran)", e.Now())
	}
	if err := e.RunFor(99 * time.Nanosecond); err != nil {
		t.Fatalf("resumed RunFor: %v", err)
	}
	if want := []Time{1, 5}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("handlers saw clocks %v, want %v", seen, want)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v after the resumed run, want 100", e.Now())
	}
}

package workload

import (
	"fmt"
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/topo"
)

// refRunner is the exactness oracle for connection recycling: a
// fresh-connection query runner that builds every round's connections
// with tcp.NewSender/NewReceiver, one closure per connection and per
// kick — what QueryRunner.startRound did before it kept the storage. It
// shares nothing with QueryRunner but QueryConfig and QueryRound.
type refRunner struct {
	e         *sim.Engine
	cfg       QueryConfig
	rounds    []QueryRound
	round     int
	remaining int
	started   sim.Time
	senders   []*tcp.Sender
	receivers []*tcp.Receiver
}

func (q *refRunner) startRound() {
	q.started = q.e.Now()
	q.remaining = len(q.cfg.Workers)
	q.senders, q.receivers = nil, nil
	base := netsim.FlowID(q.round * len(q.cfg.Workers))
	for i, w := range q.cfg.Workers {
		flow := base + netsim.FlowID(i)
		s := tcp.NewSender(w, flow, q.cfg.Aggregator.ID(), q.cfg.BytesPerWorker, plusPacingSeed(q.e, q.cfg.TCP))
		r := tcp.NewReceiver(q.cfg.Aggregator, flow, w.ID(), q.cfg.TCP)
		if q.cfg.Deadline > 0 {
			s.Deadline = q.started.Add(q.cfg.Deadline)
		}
		s.OnComplete = func(*tcp.Sender, sim.Time) { q.workerDone() }
		q.senders = append(q.senders, s)
		q.receivers = append(q.receivers, r)
		if q.cfg.StartJitter > 0 {
			q.e.After(time.Duration(q.e.Rand().Int63n(int64(q.cfg.StartJitter))), s.Start)
		} else {
			s.Start()
		}
	}
}

func (q *refRunner) workerDone() {
	q.remaining--
	if q.remaining > 0 {
		return
	}
	round := QueryRound{Start: q.started, End: q.e.Now()}
	for i, s := range q.senders {
		st := s.Stats()
		round.Timeouts += st.Timeouts
		round.Retransmissions += st.Retransmissions
		if q.cfg.Deadline > 0 && s.CompletionTime() > q.started.Add(q.cfg.Deadline) {
			round.MissedDeadlines++
		}
		q.cfg.Workers[i].Unregister(s.Flow())
		q.cfg.Aggregator.Unregister(s.Flow())
	}
	q.rounds = append(q.rounds, round)
	q.round++
	switch {
	case q.round >= q.cfg.Rounds:
	case q.cfg.Gap > 0:
		q.e.After(q.cfg.Gap, q.startRound)
	default:
		q.startRound()
	}
}

// incastStar is a 1 Gbps star whose bottleneck holds 85 packets and marks
// at 21: at 32 workers × 64 KB it is deep in incast collapse.
func incastStar(t testing.TB, seed int64, workers int) (*sim.Engine, *topo.Star) {
	t.Helper()
	const pkt = 1500
	e := sim.NewEngine(seed)
	st, err := topo.NewStar(netsim.NewNetwork(e), topo.StarConfig{
		Senders:    workers,
		Access:     netsim.PortConfig{Rate: netsim.Gbps, Delay: 25 * time.Microsecond, Buffer: 340 * pkt},
		Bottleneck: netsim.PortConfig{Rate: netsim.Gbps, Delay: 25 * time.Microsecond, Buffer: 85 * pkt, Policy: aqm.NewSingleThresholdPackets(21, pkt)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, st
}

// outcome is everything the two runners must agree on.
type outcome struct {
	rounds []QueryRound
	stats  sim.EngineStats
	drops  uint64
	noFlow uint64
}

func (o outcome) diff(ref outcome) string {
	if len(o.rounds) != len(ref.rounds) {
		return fmt.Sprintf("%d rounds, reference %d", len(o.rounds), len(ref.rounds))
	}
	for i := range o.rounds {
		if o.rounds[i] != ref.rounds[i] {
			return fmt.Sprintf("round %d: %+v, reference %+v", i, o.rounds[i], ref.rounds[i])
		}
	}
	a, b := o.stats, ref.stats
	if a.Processed != b.Processed || a.Scheduled != b.Scheduled || a.Cancelled != b.Cancelled {
		return fmt.Sprintf("engine processed/scheduled/cancelled %d/%d/%d, reference %d/%d/%d",
			a.Processed, a.Scheduled, a.Cancelled, b.Processed, b.Scheduled, b.Cancelled)
	}
	if o.drops != ref.drops || o.noFlow != ref.noFlow {
		return fmt.Sprintf("drops/no-flow %d/%d, reference %d/%d", o.drops, o.noFlow, ref.drops, ref.noFlow)
	}
	return ""
}

// noFlow sums what the hosts refused for want of an endpoint.
func noFlow(st *topo.Star) uint64 {
	n := st.Receiver.DroppedNoFlow()
	for _, h := range st.Senders {
		n += h.DroppedNoFlow()
	}
	return n
}

const oracleHorizon = 60 * time.Second

// runReference executes cfg on the oracle; poke, when set, runs at instant
// pokeAt with the runner (see TestRecycleRefusesArmedStorage).
func runReference(t *testing.T, seed int64, workers int, cfg QueryConfig, pokeAt sim.Time, poke func(*tcp.Receiver)) outcome {
	t.Helper()
	e, st := incastStar(t, seed, workers)
	cfg.Workers, cfg.Aggregator = st.Senders, st.Receiver
	q := &refRunner{e: e, cfg: cfg}
	if poke != nil {
		e.Schedule(pokeAt, func() { poke(q.receivers[0]) })
	}
	q.startRound()
	if err := e.RunFor(oracleHorizon); err != nil {
		t.Fatal(err)
	}
	if q.round != cfg.Rounds {
		t.Fatalf("reference completed %d/%d rounds", q.round, cfg.Rounds)
	}
	return outcome{q.rounds, e.Stats(), st.Bottleneck.Stats().DroppedOverflow, noFlow(st)}
}

// runRecycled executes cfg on QueryRunner and reports, beside the outcome,
// how many connection ends a round after the first had to allocate.
func runRecycled(t *testing.T, seed int64, workers int, cfg QueryConfig, pokeAt sim.Time, poke func(*tcp.Receiver)) (outcome, int) {
	t.Helper()
	e, st := incastStar(t, seed, workers)
	cfg.Workers, cfg.Aggregator = st.Senders, st.Receiver
	var q *QueryRunner
	if poke != nil {
		e.Schedule(pokeAt, func() { poke(q.receivers[0]) })
	}
	q = StartQueries(e, cfg)
	firstS := append([]*tcp.Sender(nil), q.senders...)
	firstR := append([]*tcp.Receiver(nil), q.receivers...)
	if err := e.RunFor(oracleHorizon); err != nil {
		t.Fatal(err)
	}
	if !q.Done() {
		t.Fatalf("QueryRunner completed %d/%d rounds", len(q.Rounds()), cfg.Rounds)
	}
	replaced := 0
	for i := range firstS {
		if q.senders[i] != firstS[i] {
			replaced++
		}
		if q.receivers[i] != firstR[i] {
			replaced++
		}
	}
	return outcome{q.Rounds(), e.Stats(), st.Bottleneck.Stats().DroppedOverflow, noFlow(st)}, replaced
}

// TestRecycledRoundsMatchFreshConstruction is the exactness oracle:
// QueryRunner, which reopens each round's connection storage, against
// refRunner, which constructs it, on the same topology and seed — every
// round's boundaries and counts and the engine's processed/scheduled/
// cancelled totals equal. The cases cover what a connection carries
// across its retirement: an RTO timer stopped with a wake-up queued, a
// round started from inside the last sender's own Deliver (no gap, with
// and without jitter), a delayed-ACK timer, a DCTCP+ pacer and its RNG.
func TestRecycledRoundsMatchFreshConstruction(t *testing.T) {
	base := func(v tcp.Variant) QueryConfig {
		return QueryConfig{
			BytesPerWorker: 64 << 10,
			Rounds:         12,
			Gap:            100 * time.Microsecond,
			StartJitter:    50 * time.Microsecond,
			TCP:            tcp.DefaultConfig(v),
		}
	}
	delack := base(tcp.DCTCP)
	delack.TCP.AckEvery = 2
	noJitter := base(tcp.DCTCP)
	noJitter.StartJitter = 0
	noGap := base(tcp.DCTCP)
	noGap.Gap = 0
	noGapNoJitter := noGap
	noGapNoJitter.StartJitter = 0
	deadline := base(tcp.D2TCP)
	deadline.Deadline = 20 * time.Millisecond
	plusNoGap := base(tcp.DCTCPPlus)
	plusNoGap.Gap = 0

	for _, tc := range []struct {
		name     string
		workers  int
		cfg      QueryConfig
		collapse bool
	}{
		{"dctcp-w32-collapse", 32, base(tcp.DCTCP), true},
		{"dctcp-w32-no-jitter", 32, noJitter, true},
		{"dctcp-w32-no-gap", 32, noGap, true},
		{"dctcp-w32-no-gap-no-jitter", 32, noGapNoJitter, true},
		{"dctcp-w32-delayed-ack", 32, delack, false},
		{"dctcp-w8-delayed-ack", 8, delack, false},
		{"d2tcp-w32-deadline", 32, deadline, true},
		{"dctcp+-w32", 32, base(tcp.DCTCPPlus), false},
		{"dctcp+-w16-no-gap", 16, plusNoGap, false},
		{"reno-w32", 32, base(tcp.Reno), true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{7, 8} {
				ref := runReference(t, seed, tc.workers, tc.cfg, 0, nil)
				got, replaced := runRecycled(t, seed, tc.workers, tc.cfg, 0, nil)
				if d := got.diff(ref); d != "" {
					t.Fatalf("seed %d: %s", seed, d)
				}
				if replaced != 0 {
					t.Errorf("seed %d: %d connection ends were allocated after the first round", seed, replaced)
				}
				var rto uint64
				for _, r := range ref.rounds {
					rto += r.Timeouts
				}
				if tc.collapse && (rto == 0 || ref.drops == 0) {
					t.Errorf("seed %d: collapse case is vacuous: %d RTOs, %d drops", seed, rto, ref.drops)
				}
			}
		})
	}
}

// TestRecycleRefusesArmedStorage arms a retired receiver's delayed-ACK
// timer between two rounds — a stray in-order segment handed to it in
// the gap, in both runners at the same instant — and checks that the
// next round does not reuse that storage (it allocates, as the reference
// always does), that every other end is still reused, and that the run
// still matches: the orphaned timer fires into a closed flow on both
// sides.
func TestRecycleRefusesArmedStorage(t *testing.T) {
	cfg := QueryConfig{
		BytesPerWorker: 64 << 10,
		Rounds:         6,
		Gap:            200 * time.Microsecond, // under the 500 µs delayed-ACK timeout
		StartJitter:    50 * time.Microsecond,
		TCP:            tcp.DefaultConfig(tcp.DCTCP),
	}
	cfg.TCP.AckEvery = 2
	const seed, workers = 7, 8

	plain := runReference(t, seed, workers, cfg, 0, nil)
	pokeAt := plain.rounds[2].End.Add(cfg.Gap / 2)
	if pokeAt >= plain.rounds[3].Start {
		t.Fatalf("poke at %v is not inside the gap before round 3 (%v)", pokeAt, plain.rounds[3].Start)
	}
	poked := 0
	poke := func(r *tcp.Receiver) {
		poked++
		r.Deliver(&netsim.Packet{Flow: 1, Seq: r.Received(), PayloadLen: 100, Size: 140})
	}
	ref := runReference(t, seed, workers, cfg, pokeAt, poke)
	got, replaced := runRecycled(t, seed, workers, cfg, pokeAt, poke)
	if poked != 2 {
		t.Fatalf("poke ran %d times, want once per runner", poked)
	}
	if d := got.diff(ref); d != "" {
		t.Fatal(d)
	}
	if replaced != 1 {
		t.Fatalf("%d connection ends allocated after the first round, want exactly the armed receiver", replaced)
	}
	if ref.noFlow == plain.noFlow {
		t.Fatal("the orphaned delayed ACK reached nobody's DroppedNoFlow: the timer was not armed across the round start")
	}
}

// A late duplicate for a retired flow is counted at the host and never
// reaches the connection that now owns the storage.
func TestLateDuplicateNeverReachesNextOwner(t *testing.T) {
	e, st := incastStar(t, 3, 4)
	q := StartQueries(e, QueryConfig{
		Workers:        st.Senders,
		Aggregator:     st.Receiver,
		BytesPerWorker: 16 << 10,
		Rounds:         2,
		Gap:            10 * time.Millisecond,
		TCP:            tcp.DefaultConfig(tcp.DCTCP),
	})
	old := q.receivers[0]
	// Stop inside round 1: its connections (flows 4–7) are open on the
	// storage round 0 (flows 0–3) retired.
	if err := e.RunUntil(sim.FromDuration(10*time.Millisecond + 200*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if len(q.Rounds()) != 1 || q.receivers[0] != old {
		t.Fatalf("%d rounds done, storage reused: %v — the probe needs round 1 open on round 0's storage",
			len(q.Rounds()), q.receivers[0] == old)
	}
	before, dropped := old.Stats(), st.Receiver.DroppedNoFlow()
	st.Receiver.Receive(&netsim.Packet{Flow: 1, Seq: 0, PayloadLen: 1460, Size: 1500})
	if got := st.Receiver.DroppedNoFlow(); got != dropped+1 {
		t.Fatalf("DroppedNoFlow %d → %d, want one more", dropped, got)
	}
	if old.Stats() != before {
		t.Fatalf("the retired flow's duplicate reached the storage's next owner: %+v → %+v", before, old.Stats())
	}
}

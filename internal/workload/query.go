package workload

import (
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
)

// QueryConfig parameterizes a repeated partition/aggregate query: every
// round, all workers simultaneously send BytesPerWorker to the aggregator;
// the round completes when the last byte is acknowledged.
//
// With BytesPerWorker fixed (64 KB) this is the paper's Incast experiment
// (Fig. 14); with BytesPerWorker = TotalBytes/n it is the completion-time
// experiment (Fig. 15).
type QueryConfig struct {
	// Workers are the responding hosts.
	Workers []*netsim.Host
	// Aggregator is the querying host that receives every response.
	Aggregator *netsim.Host
	// BytesPerWorker is each worker's response size.
	BytesPerWorker int64
	// Rounds is the number of repetitions.
	Rounds int
	// Gap is idle time between a round's completion and the next
	// round's start, modelling the aggregator's think time.
	Gap time.Duration
	// TCP configures all worker senders.
	TCP tcp.Config
	// Deadline, when positive, gives every response a completion
	// deadline of round-start + Deadline; D2TCP senders use it to
	// modulate their backoff, and the runner counts misses for every
	// variant.
	Deadline time.Duration
	// Persistent reuses one connection per worker across rounds, the
	// standard incast benchmark setup: after the first round responses
	// resume with the congestion state the previous round left behind.
	// When false, every round opens fresh connections in slow start.
	// The runner's flow IDs start at 0: it consumes Rounds×len(Workers)
	// consecutive IDs, one set when Persistent.
	Persistent bool
	// StartJitter staggers each worker's response uniformly over the
	// interval, modelling request fan-out serialization and host
	// scheduling noise. Zero starts all workers at the same instant.
	StartJitter time.Duration
}

// QueryRound records one completed round.
type QueryRound struct {
	// Start and End bound the round.
	Start, End sim.Time
	// Timeouts counts RTO firings during the round, the paper's
	// explanation for throughput collapse.
	Timeouts uint64
	// Retransmissions counts retransmitted segments during the round.
	Retransmissions uint64
	// MissedDeadlines counts workers that finished after the round's
	// deadline (always 0 when no deadline is configured).
	MissedDeadlines int
}

// Completion returns the round's query completion time.
func (r QueryRound) Completion() time.Duration { return (r.End - r.Start).Duration() }

// QueryRunner executes a QueryConfig round by round.
type QueryRunner struct {
	engine *sim.Engine
	cfg    QueryConfig

	rounds    []QueryRound
	round     int
	remaining int
	started   sim.Time
	// senders and receivers are the current round's connections, indexed
	// by worker. Between fresh-connection rounds they are the free lists:
	// the round's end unregisters both ends, and the next round reopens
	// the storage at the same index (connect).
	senders   []*tcp.Sender
	receivers []*tcp.Receiver
	// Baselines for per-round deltas on persistent connections.
	baseTimeouts, baseRetx uint64
	done                   bool
	// doneFn, extendFn and roundFn are workerDone, extend and startRound
	// bound once, so no connection and no round allocates a closure.
	doneFn   func(*tcp.Sender, sim.Time)
	extendFn func(any)
	roundFn  func()
}

// StartQueries begins the first round at the current instant.
func StartQueries(engine *sim.Engine, cfg QueryConfig) *QueryRunner {
	q := &QueryRunner{engine: engine, cfg: cfg}
	if cfg.Rounds > 0 {
		q.rounds = make([]QueryRound, 0, cfg.Rounds)
	}
	q.doneFn = q.workerDone
	q.extendFn = q.extend
	q.roundFn = q.startRound
	if cfg.Rounds > 0 && len(cfg.Workers) > 0 {
		q.startRound()
	} else {
		q.done = true
	}
	return q
}

// startSender is the kick of a first transfer: arg is the *tcp.Sender.
func startSender(arg any) { arg.(*tcp.Sender).Start() }

// extend is the kick of a persistent connection's next response.
func (q *QueryRunner) extend(arg any) { arg.(*tcp.Sender).Extend(q.cfg.BytesPerWorker) }

// Done reports whether every round has completed.
func (q *QueryRunner) Done() bool { return q.done }

// Rounds returns the completed rounds (shared slice; do not mutate).
func (q *QueryRunner) Rounds() []QueryRound { return q.rounds }

// CompletionTimes lists each round's query completion time in seconds.
func (q *QueryRunner) CompletionTimes() []float64 {
	out := make([]float64, len(q.rounds))
	for i, r := range q.rounds {
		out[i] = r.Completion().Seconds()
	}
	return out
}

// GoodputsBps lists each round's application goodput in bits/second:
// total response bytes divided by the query completion time.
func (q *QueryRunner) GoodputsBps() []float64 {
	out := make([]float64, len(q.rounds))
	total := float64(q.cfg.BytesPerWorker) * float64(len(q.cfg.Workers)) * 8
	for i, r := range q.rounds {
		out[i] = total / r.Completion().Seconds()
	}
	return out
}

// TotalMissedDeadlines sums deadline misses over all rounds.
func (q *QueryRunner) TotalMissedDeadlines() int {
	total := 0
	for _, r := range q.rounds {
		total += r.MissedDeadlines
	}
	return total
}

// Losses sums RTO firings and retransmitted segments over all completed
// rounds.
func (q *QueryRunner) Losses() (timeouts, retransmissions uint64) {
	for _, r := range q.rounds {
		timeouts += r.Timeouts
		retransmissions += r.Retransmissions
	}
	return timeouts, retransmissions
}

func (q *QueryRunner) startRound() {
	q.started = q.engine.Now()
	q.remaining = len(q.cfg.Workers)
	deadline := sim.TimeNever
	if q.cfg.Deadline > 0 {
		deadline = q.started.Add(q.cfg.Deadline)
	}
	if q.cfg.Persistent && q.round > 0 {
		for _, s := range q.senders {
			if q.cfg.Deadline > 0 {
				s.Deadline = deadline
			}
			q.kickoff(q.extendFn, s)
		}
		return
	}
	var base netsim.FlowID
	if !q.cfg.Persistent {
		base = netsim.FlowID(q.round * len(q.cfg.Workers))
	}
	for i := range q.cfg.Workers {
		s := q.connect(i, base+netsim.FlowID(i))
		if q.cfg.Deadline > 0 {
			s.Deadline = deadline
		}
		s.OnComplete = q.doneFn
		q.kickoff(startSender, s)
	}
}

// connect opens worker i's connection to the aggregator as flow and
// returns its sender. A fresh-connection round after the first finds the
// previous round's retired pair at index i and reopens that storage; the
// allocate branch is the first round, and any storage Reopen refuses.
//
//dtlint:hotpath
func (q *QueryRunner) connect(i int, flow netsim.FlowID) *tcp.Sender {
	worker, agg := q.cfg.Workers[i], q.cfg.Aggregator
	cfg := plusPacingSeed(q.engine, q.cfg.TCP)
	if i == len(q.senders) {
		//dtlint:allow hotalloc: the first round builds the connections every later round reopens
		q.senders = append(q.senders, tcp.NewSender(worker, flow, agg.ID(), q.cfg.BytesPerWorker, cfg))
		//dtlint:allow hotalloc: as above
		q.receivers = append(q.receivers, tcp.NewReceiver(agg, flow, worker.ID(), q.cfg.TCP))
		return q.senders[i]
	}
	if !q.senders[i].Reopen(worker, flow, agg.ID(), q.cfg.BytesPerWorker, cfg) {
		q.senders[i] = tcp.NewSender(worker, flow, agg.ID(), q.cfg.BytesPerWorker, cfg)
	}
	if !q.receivers[i].Reopen(agg, flow, worker.ID(), q.cfg.TCP) {
		q.receivers[i] = tcp.NewReceiver(agg, flow, worker.ID(), q.cfg.TCP)
	}
	return q.senders[i]
}

// kickoff runs fn(s) now or after the configured jitter.
//
//dtlint:hotpath
func (q *QueryRunner) kickoff(fn func(any), s *tcp.Sender) {
	if q.cfg.StartJitter > 0 {
		jitter := time.Duration(q.engine.Rand().Int63n(int64(q.cfg.StartJitter)))
		q.engine.AfterArg(jitter, fn, s)
		return
	}
	fn(s)
}

// workerDone is every sender's OnComplete. The last completion of a
// round closes it and, with no Gap, starts the next from inside that
// sender's Deliver — which is why a completed sender touches nothing
// after OnComplete returns.
func (q *QueryRunner) workerDone(*tcp.Sender, sim.Time) {
	q.remaining--
	if q.remaining > 0 {
		return
	}
	round := QueryRound{Start: q.started, End: q.engine.Now()}
	var timeouts, retx uint64
	deadline := q.started.Add(q.cfg.Deadline)
	for _, s := range q.senders {
		st := s.Stats()
		timeouts += st.Timeouts
		retx += st.Retransmissions
		if q.cfg.Deadline > 0 && s.CompletionTime() > deadline {
			round.MissedDeadlines++
		}
	}
	round.Timeouts = timeouts - q.baseTimeouts
	round.Retransmissions = retx - q.baseRetx
	if q.cfg.Persistent {
		q.baseTimeouts, q.baseRetx = timeouts, retx
	}
	q.rounds = append(q.rounds, round)

	// Fresh-connection mode unregisters every round so host tables do
	// not grow; persistent mode unregisters only after the final round.
	if lastRound := q.round == q.cfg.Rounds-1; !q.cfg.Persistent || lastRound {
		for i, s := range q.senders {
			q.cfg.Workers[i].Unregister(s.Flow())
			q.cfg.Aggregator.Unregister(s.Flow())
		}
	}
	if !q.cfg.Persistent {
		q.baseTimeouts, q.baseRetx = 0, 0
	}

	q.round++
	if q.round >= q.cfg.Rounds {
		q.done = true
		return
	}
	if q.cfg.Gap > 0 {
		q.engine.After(q.cfg.Gap, q.roundFn)
	} else {
		q.startRound()
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
	"dtdctcp/internal/workload"
)

// run is the one execution path under every scenario runner: it owns the
// engine and is the only code that knows whether the run is serial or
// sharded. Runners build a topology on engine, partition it, start a
// workload, run until a horizon and read the result.
type run struct {
	// engine is the construction engine. A sharded run builds on shard 0,
	// whose RNG stream equals the serial engine's, in the same creation
	// order — so the two stay byte-identical by construction.
	engine *sim.Engine
	// se is nil for a serial run.
	se *sim.ShardedEngine
	// obs is nil unless observe turned metrics on.
	obs *observer
}

// newRun makes a serial run, or one on that many event wheels when
// shards is above one.
func newRun(seed int64, shards int) *run {
	if shards > 1 {
		se := sim.NewShardedEngine(seed, shards)
		return &run{engine: se.Shard(0), se: se}
	}
	return &run{engine: sim.NewEngine(seed)}
}

// testPermuteAssign, when non-nil, rewrites the domain→shard assignment
// of sharded runs before Partition. It exists only for the metamorphic
// determinism tests, which assert that results do not depend on where
// domains land (every cross-domain delivery is ordered by a key made of
// domain indices, never shard indices, whether or not it crosses shards);
// the domains listed in pinned must stay on shard 0.
var testPermuteAssign func(assign, pinned []int)

// partition cuts the built topology across the shards; a serial run does
// nothing. Call it after routes are computed (source-side egress
// resolution reads them) and before endpoints are constructed (they bind
// Host.Engine). The pinned ports' domains go to shard 0: a randomized
// queue law draws from the root RNG at runtime, and a coupler ticks on
// the construction engine. Members of a pinned port's shared-buffer pool
// go with it — the pool counter must live on a single shard.
func (r *run) partition(nw *netsim.Network, pinned ...*netsim.Port) error {
	if r.se == nil {
		return nil
	}
	var pins []int
	for _, p := range pinned {
		pins = append(pins, nw.PortDomain(p))
		if pool := p.Shared(); pool != nil {
			for _, m := range pool.Ports() {
				pins = append(pins, nw.PortDomain(m))
			}
		}
	}
	assign := nw.DefaultAssign(r.se.NumShards(), pins...)
	if testPermuteAssign != nil {
		testPermuteAssign(assign, pins)
	}
	return nw.Partition(r.se, assign)
}

// at runs fn at instant t with a view of every domain's state: an
// ordinary event when serial, a barrier task — coordinator context, after
// every shard has processed all events before t — when sharded.
func (r *run) at(t sim.Time, fn func()) {
	if r.se != nil {
		r.se.ScheduleBarrier(t, func(sim.Time) { fn() })
		return
	}
	r.engine.Schedule(t, fn)
}

// every runs fn each d from now on, as at does. Each tick schedules the
// next after calling fn, one period ahead, exactly like a hand-written
// self-rechaining event: the (at, schedAt, seq) keys of a serial run are
// those the chain always had, and the sharded chain fires at the serial
// tick's place in that order.
func (r *run) every(d time.Duration, fn func(now sim.Time)) {
	if r.se != nil {
		var tick func(now sim.Time)
		tick = func(now sim.Time) {
			fn(now)
			r.se.ScheduleBarrier(now.Add(d), tick)
		}
		r.se.ScheduleBarrier(r.se.Now().Add(d), tick)
		return
	}
	var tick func()
	tick = func() {
		fn(r.engine.Now())
		r.engine.After(d, tick)
	}
	r.engine.After(d, tick)
}

// until executes the run up to and including end.
func (r *run) until(end sim.Time) error {
	if r.se != nil {
		return r.se.RunUntil(end)
	}
	return r.engine.RunUntil(end)
}

// stats reports the engine counters, summed over shards.
func (r *run) stats() sim.EngineStats {
	if r.se != nil {
		return r.se.Stats()
	}
	return r.engine.Stats()
}

// queries starts the synchronized-query workload: in relay mode on a
// partitioned network, on the engine otherwise.
func (r *run) queries(cfg workload.QueryConfig) *workload.QueryRunner {
	if r.se != nil {
		return workload.StartQueriesSharded(r.se, cfg)
	}
	return workload.StartQueries(r.engine, cfg)
}

// droppedNoFlow sums, over every host, the packets refused for want of an
// endpoint: segments and ACKs that arrived after their connection closed.
// Connection recycling relies on them being refused at the host's table;
// no digest folds the count.
func droppedNoFlow(nw *netsim.Network) uint64 {
	var n uint64
	for _, h := range nw.Hosts() {
		n += h.DroppedNoFlow()
	}
	return n
}

// observe turns the metrics registry on — engine counters, and the
// coordinator's when sharded — with a sampler when sampleEvery is positive.
func (r *run) observe(sampleEvery time.Duration) {
	r.obs = newObserver(r.engine, r.stats, sampleEvery)
	if r.se != nil {
		metrics.InstrumentShardStats(r.obs.reg, r.se)
	}
}

// snapshot freezes the registry at the run's virtual end time; nil when
// metrics are off.
func (r *run) snapshot(end sim.Time) *metrics.Snapshot {
	if r.obs == nil {
		return nil
	}
	return r.obs.reg.Snapshot(end.Seconds())
}

// star builds the dumbbell every single-bottleneck scenario runs on:
// senders and one receiver around one switch, the RTT split evenly over
// the four link traversals, access links at ten times the bottleneck
// rate, and the protocol's queue law on the switch → receiver port. With
// shared enabled the switch's buffers become one pool. The topology is
// partitioned with the bottleneck pinned before it is returned.
func (r *run) star(p Protocol, senders int, rate netsim.Rate, rtt time.Duration, bufferPkts int, shared SharedBufferConfig) (*topo.Star, error) {
	pktSize := p.PacketSize()
	hop := rtt / 4
	bneck := netsim.PortConfig{Rate: rate, Delay: hop, Buffer: bufferPkts * pktSize}
	if p.NewPolicy != nil {
		bneck.Policy = p.NewPolicy(r.engine.Rand())
	}
	st, err := topo.NewStar(netsim.NewNetwork(r.engine), topo.StarConfig{
		Senders:    senders,
		Access:     netsim.PortConfig{Rate: 10 * rate, Delay: hop, Buffer: 4096 * pktSize},
		Bottleneck: bneck,
	})
	if err != nil {
		return nil, err
	}
	if shared.enabled() {
		if err := shared.build(st.Switch, st.Bottleneck, bufferPkts, pktSize); err != nil {
			return nil, err
		}
	}
	return st, r.partition(st.Net, st.Bottleneck)
}

// record attaches a queue recorder to the bottleneck port, excluding
// warmup from its aggregates and decimating its series to sampleEvery
// (zero keeps no series). With metrics on, the port's counters and depth
// histogram are registered and fanned in beside it.
func (r *run) record(bneck *netsim.Port, pktSize, bufferPkts int, warmup, sampleEvery time.Duration) *netsim.QueueRecorder {
	rec := netsim.NewQueueRecorder(pktSize, sim.FromDuration(sampleEvery))
	rec.WarmupUntil = sim.FromDuration(warmup)
	if r.obs != nil {
		bneck.SetMonitor(netsim.MultiMonitor{rec, r.obs.observePort("bottleneck", bneck, pktSize, bufferPkts)})
	} else {
		bneck.SetMonitor(rec)
	}
	return rec
}

// serialOnly is the one feature-compatibility table: what a run on more
// than one shard refuses, and why. The README's table is generated from
// it (TestSerialOnlyTableInREADME).
var serialOnly = []struct {
	runner, feature, refusal, why string
}{
	{"RunDumbbell", "Chaos", "core: Chaos requires serial execution (Shards <= 1)",
		"fault actions are coordinator-side events with no barrier equivalent yet"},
	{"RunDumbbell", "MetricsSampleEvery", "core: MetricsSampleEvery requires serial execution (Shards <= 1)",
		"the sampler's ticks are engine events reading every domain"},
	{"RunQuery", "Chaos", "core: Chaos requires serial execution (Shards <= 1)",
		"fault actions are coordinator-side events with no barrier equivalent yet"},
	{"RunQuery", "FreshConnections", "core: FreshConnections requires serial execution (Shards <= 1)",
		"relay mode cannot construct endpoints per round"},
	{"RunQuery", "Gap < 2*HopDelay", "core: sharded queries need Gap >= 2*HopDelay (round starts must clear the epoch barrier)",
		"the next round must start beyond the barrier that detects the last one's end"},
	{"RunFabric", "randomized queue law (PIE, RED)", "core: a randomized queue law on a fabric requires serial execution (Shards <= 1)",
		"every port's law draws from the construction RNG at runtime; off shard 0 that is a data race, and pinning them all there is a serial run"},
}

// checkSerialOnly refuses a sharded run of runner that uses any feature
// the table lists for it.
func checkSerialOnly(runner string, shards int, uses map[string]bool) error {
	if shards <= 1 {
		return nil
	}
	for _, g := range serialOnly {
		if g.runner == runner && uses[g.feature] {
			return errors.New(g.refusal)
		}
	}
	return nil
}

// checkShared validates the fields the single-bottleneck runners share.
func checkShared(rate netsim.Rate, rtt time.Duration, bufferPkts int, duration, warmup time.Duration, shards int, samplePeriods ...time.Duration) error {
	switch {
	case rate <= 0:
		return errors.New("core: Rate must be positive")
	case rtt <= 0:
		return errors.New("core: RTT must be positive")
	case bufferPkts <= 0:
		return errors.New("core: BufferPkts must be positive")
	case duration <= 0:
		return errors.New("core: Duration must be positive")
	case warmup < 0:
		return errors.New("core: Warmup must not be negative")
	case shards < 0:
		return errors.New("core: Shards must not be negative")
	}
	for _, p := range samplePeriods {
		if p < 0 {
			return errors.New("core: sample periods must not be negative")
		}
	}
	return nil
}

// sweep runs point for every value on up to workers goroutines (values
// < 1 mean GOMAXPROCS) and returns the results in input order. A sharded
// point occupies one goroutine per shard, so the pool shrinks to keep
// the sweep from oversubscribing the machine. label formats a value for
// the error of a failed point.
func sweep[V, P any](ctx context.Context, values []V, workers, shards int, label string, point func(V) (P, error)) ([]P, error) {
	return runner.Map(ctx, len(values), runner.Options{Workers: workers, ThreadsPerJob: shards},
		func(_ context.Context, i int) (P, error) {
			p, err := point(values[i])
			if err != nil {
				return p, fmt.Errorf("sweep %s: %w", fmt.Sprintf(label, values[i]), err)
			}
			return p, nil
		})
}

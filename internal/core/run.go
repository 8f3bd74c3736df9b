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
)

// run is the one execution path under every scenario runner: it owns the
// engine and is the only code that knows whether the run is serial or
// sharded. Runners build a topology on engine, start a workload, run
// until a horizon and read the result. Only the fabric shards: it
// partitions its topology before starting the workload.
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
// domain indices, never shard indices, whether or not it crosses shards).
var testPermuteAssign func(assign []int)

// partition cuts the built topology across the shards; a serial run does
// nothing. Call it after routes are computed (source-side egress
// resolution reads them) and before endpoints are constructed (they bind
// Host.Engine).
func (r *run) partition(nw *netsim.Network) error {
	if r.se == nil {
		return nil
	}
	assign := nw.DefaultAssign(r.se.NumShards())
	if testPermuteAssign != nil {
		testPermuteAssign(assign)
	}
	return nw.Partition(r.se, assign)
}

// every runs fn each d from now on. Each tick schedules the next after
// calling fn, one period ahead, exactly like a hand-written
// self-rechaining event.
func (r *run) every(d time.Duration, fn func(now sim.Time)) {
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
// shared enabled the switch's buffers become one pool.
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
	return st, nil
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

// checkShared validates the fields the single-bottleneck runners share.
func checkShared(rate netsim.Rate, rtt time.Duration, bufferPkts int, duration, warmup time.Duration, samplePeriods ...time.Duration) error {
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
// fabric point occupies one goroutine per shard, so the pool shrinks to
// keep the sweep from oversubscribing the machine. label formats a value
// for the error of a failed point.
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

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
)

// run is the one execution path under every scenario runner: it owns the
// engine. Runners build a topology on engine, start a workload, run until
// a horizon and read the result.
type run struct {
	engine *sim.Engine
	// obs is nil unless observe turned metrics on.
	obs *observer
}

func newRun(seed int64) *run { return &run{engine: sim.NewEngine(seed)} }

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

// observe turns the metrics registry on, engine counters included.
func (r *run) observe() {
	r.obs = &observer{reg: metrics.NewRegistry()}
	metrics.InstrumentEngineStats(r.obs.reg, r.engine.Stats)
}

// Outcome is what every runner counts the same way. Each result embeds
// it, so its fields read as the result's own and encoding/json flattens
// them into the result's keys; run.collect fills it after the run.
type Outcome struct {
	// Events is the number of simulator events processed.
	Events uint64 `json:"events"`
	// Marks and Drops count CE marks and overflow drops at the ports the
	// runner names: the bottleneck of a star or the testbed, every switch
	// port of a fabric. Both cover the whole run, warmup included.
	Marks uint64 `json:"marks"`
	Drops uint64 `json:"drops"`
	// HostDrops counts overflow drops at the hosts' uplink ports (NICs),
	// which Drops omits.
	HostDrops uint64 `json:"host_drops"`
	// DroppedNoFlow counts packets a host refused because their
	// connection had already closed: late duplicates and their ACKs
	// after an endpoint retired.
	DroppedNoFlow uint64 `json:"dropped_no_flow"`
	// Timeouts and Retransmissions sum sender RTO firings and
	// retransmitted segments over every connection of the workload.
	Timeouts        uint64 `json:"timeouts"`
	Retransmissions uint64 `json:"retransmissions"`
	// Metrics is the run's observability snapshot; nil unless the
	// scenario asked for metrics.
	Metrics *metrics.Snapshot `json:"-"`

	// enqueued counts the packets the Marks/Drops ports admitted: the
	// fabric's rate denominator.
	enqueued uint64
}

// losses is what collect asks of every workload: RTO firings and
// retransmitted segments, summed over its connections.
type losses interface {
	Losses() (timeouts, retransmissions uint64)
}

// collect fills the outcome after until, in one walk over every port and
// host of nw. bneck names the port Marks and Drops count; nil counts every
// switch port. The snapshot, when metrics are on, is frozen at end.
func (r *run) collect(nw *netsim.Network, bneck *netsim.Port, end sim.Time, loads ...losses) Outcome {
	o := Outcome{Events: r.engine.Stats().Processed}
	for _, sw := range nw.Switches() {
		for i := 0; i < sw.Ports(); i++ {
			p := sw.Port(i)
			st := p.Stats()
			if bneck == nil || p == bneck {
				o.Marks += st.Marked
				o.Drops += st.DroppedOverflow
				o.enqueued += st.Enqueued
			}
		}
	}
	for _, h := range nw.Hosts() {
		st := h.Uplink().Stats()
		o.HostDrops += st.DroppedOverflow
		o.DroppedNoFlow += h.DroppedNoFlow()
	}
	for _, w := range loads {
		timeouts, retx := w.Losses()
		o.Timeouts += timeouts
		o.Retransmissions += retx
	}
	if r.obs != nil {
		o.Metrics = r.obs.reg.Snapshot(end.Seconds())
	}
	return o
}

// star builds the dumbbell every single-bottleneck scenario runs on:
// senders and one receiver around one switch, the RTT split evenly over
// the four link traversals, access links at ten times the bottleneck
// rate, and the protocol's queue law on the switch → receiver port. With
// shared enabled the switch's buffers become one pool.
func (r *run) star(p Protocol, senders int, rate netsim.Rate, rtt time.Duration, bufferPkts int, shared SharedBufferConfig) (*topo.Star, error) {
	pktSize := p.PacketSize()
	hop := rtt / 4
	bneck := netsim.PortConfig{Rate: rate, Delay: hop, Buffer: bufferPkts * pktSize, Policy: p.NewPolicy(r.engine.Rand())}
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

// checkFlowIDs refuses count flows numbered from base when the last id
// would pass math.MaxInt32, the largest netsim.FlowID; what names the
// count in the reason.
func checkFlowIDs(what string, base, count int64) error {
	if count > 0 && count-1 > math.MaxInt32-base {
		return fmt.Errorf("core: %s = %d puts flow ids past %d", what, count, math.MaxInt32)
	}
	return nil
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
// < 1 mean GOMAXPROCS) and returns the results in input order. label
// formats a value for the error of a failed point.
func sweep[V, P any](ctx context.Context, values []V, workers int, label string, point func(V) (P, error)) ([]P, error) {
	return runner.Map(ctx, len(values), runner.Options{Workers: workers},
		func(_ context.Context, i int) (P, error) {
			p, err := point(values[i])
			if err != nil {
				return p, fmt.Errorf("sweep %s: %w", fmt.Sprintf(label, values[i]), err)
			}
			return p, nil
		})
}

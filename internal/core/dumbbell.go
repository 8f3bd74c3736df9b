package core

import (
	"context"
	"errors"
	"io"
	"math"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/trace"
	"dtdctcp/internal/workload"
)

// DumbbellConfig is the scenario of the paper's Section VI-A simulations:
// N long-lived flows share one bottleneck of the given rate and round-trip
// time.
type DumbbellConfig struct {
	// Protocol selects endpoints and queue law.
	Protocol Protocol
	// Flows is N, the number of long-lived flows.
	Flows int
	// Rate is the bottleneck link speed (the paper uses 10 Gbps).
	Rate netsim.Rate
	// RTT is the zero-queue round-trip time (the paper uses 100 µs).
	RTT time.Duration
	// BufferPkts is the bottleneck buffer in packets.
	BufferPkts int
	// Duration is the measured interval, after Warmup.
	Duration time.Duration
	// Warmup is excluded from all aggregate statistics.
	Warmup time.Duration
	// QueueSampleEvery decimates the queue time series; zero disables
	// the series (aggregates are always collected).
	QueueSampleEvery time.Duration
	// AlphaSampleEvery sets the sampling period of the mean-α series;
	// zero disables it.
	AlphaSampleEvery time.Duration
	// Seed drives all randomness (start jitter).
	Seed int64
	// TraceTo, when set, streams the bottleneck port's per-packet
	// events (enqueue/dequeue/mark/drop) as JSON Lines.
	TraceTo io.Writer
	// Metrics enables the observability registry: the result carries a
	// Snapshot covering the engine, bottleneck port and senders.
	// Collection is pull-based, so enabling it changes no event order
	// and no result field.
	Metrics bool
	// MetricsSampleEvery additionally runs a periodic virtual-time
	// sampler exporting queue depth, mean α, and mean cwnd as series in
	// the snapshot (implies Metrics). Unlike plain Metrics, the
	// sampler's ticks are engine events: a sampled run is a different —
	// still deterministic — run than an unsampled one.
	MetricsSampleEvery time.Duration
	// SharedBuffer, when enabled (Alpha > 0), replaces the switch's
	// static per-port buffers with one dynamic-threshold pool.
	SharedBuffer SharedBufferConfig
}

// SharedBufferConfig opts a scenario's bottleneck switch into
// shared-buffer dynamic-threshold allocation (netsim.SharedBuffer):
// admission tail-drops against T = α·(B − ΣQ) instead of a static
// per-port bound. The zero value leaves buffers private.
type SharedBufferConfig struct {
	// Alpha is the dynamic-threshold parameter; zero disables sharing.
	Alpha float64
	// PoolPkts is the pool capacity B in packets; zero defaults to the
	// scenario's per-port buffer (BufferPkts), which makes the
	// single-member pool directly comparable to the private-buffer run.
	PoolPkts int
	// BottleneckOnly restricts the pool to the bottleneck port instead
	// of every port of the switch. The conformance grid's
	// uncontended-limit scenario uses this: with one member and a large
	// α the pool must agree verdict-for-verdict with per-port tail-drop.
	BottleneckOnly bool
}

// enabled reports whether the scenario shares buffers.
func (s SharedBufferConfig) enabled() bool { return s.Alpha > 0 }

// validate refuses what build and enabled would otherwise rewrite: build
// runs a negative PoolPkts as the default pool, and enabled reads a
// negative or NaN Alpha as no pool at all.
func (s SharedBufferConfig) validate() error {
	switch {
	case s.PoolPkts < 0:
		return errors.New("core: SharedBuffer.PoolPkts must not be negative")
	case s.Alpha < 0 || math.IsNaN(s.Alpha):
		return errors.New("core: SharedBuffer.Alpha must not be negative or NaN")
	}
	return nil
}

// build creates the pool (poolPkts defaulted to bufferPkts) and attaches
// either just the bottleneck or every port of the switch.
func (s SharedBufferConfig) build(sw *netsim.Switch, bneck *netsim.Port, bufferPkts, pktSize int) error {
	poolPkts := s.PoolPkts
	if poolPkts <= 0 {
		poolPkts = bufferPkts
	}
	pool, err := netsim.NewSharedBuffer(poolPkts*pktSize, s.Alpha)
	if err != nil {
		return err
	}
	if s.BottleneckOnly {
		return pool.Attach(bneck)
	}
	for i := 0; i < sw.Ports(); i++ {
		if err := pool.Attach(sw.Port(i)); err != nil {
			return err
		}
	}
	return nil
}

func (c DumbbellConfig) validate() error {
	if c.Flows <= 0 {
		return errors.New("core: Flows must be positive")
	}
	if err := c.Protocol.validate(); err != nil {
		return err
	}
	if err := c.SharedBuffer.validate(); err != nil {
		return err
	}
	return checkShared(c.Rate, c.RTT, c.BufferPkts, c.Duration, c.Warmup,
		c.QueueSampleEvery, c.AlphaSampleEvery, c.MetricsSampleEvery)
}

// DumbbellResult aggregates one dumbbell run.
type DumbbellResult struct {
	// Protocol and Flows echo the configuration.
	Protocol string
	Flows    int

	// QueueMeanPkts and QueueStdPkts are the time-weighted queue
	// statistics in packets over the measured interval (Figs. 10, 11).
	QueueMeanPkts, QueueStdPkts float64
	// QueueMinPkts and QueueMaxPkts bound the measured excursion.
	QueueMinPkts, QueueMaxPkts float64
	// QueueSeries is the decimated occupancy trace (Fig. 1), including
	// warmup; nil when sampling was disabled.
	QueueSeries *stats.Series

	// AlphaMean is the time-average of the flows' mean α over the
	// measured interval (Fig. 12).
	AlphaMean float64
	// AlphaSeries is the sampled mean-α trace; nil when disabled.
	AlphaSeries *stats.Series

	// OscPeriod is the dominant queue-oscillation period estimated from
	// the sampled trace by autocorrelation (zero when QueueSampleEvery
	// was unset or no periodicity was found); OscConfidence is the
	// normalized autocorrelation at that lag. Comparable against the
	// limit-cycle period predicted by the describing-function analysis.
	OscPeriod     time.Duration
	OscConfidence float64

	// Utilization is bottleneck goodput ÷ capacity over the measured
	// interval.
	Utilization float64
	// Fairness is Jain's index over per-flow acknowledged bytes at the
	// end of the run (1 = perfectly even).
	Fairness float64
	// PerFlowAcked lists each flow's acknowledged bytes.
	PerFlowAcked []int64

	// Outcome counts marks and drops at the bottleneck.
	Outcome
}

// RunDumbbell executes the scenario to completion and aggregates results.
func RunDumbbell(cfg DumbbellConfig) (*DumbbellResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := newRun(cfg.Seed)
	star, err := r.star(cfg.Protocol, cfg.Flows, cfg.Rate, cfg.RTT, cfg.BufferPkts, cfg.SharedBuffer)
	if err != nil {
		return nil, err
	}
	bneck, rcv, senders := star.Bottleneck, star.Receiver, star.Senders
	pktSize := cfg.Protocol.PacketSize()

	if cfg.Metrics || cfg.MetricsSampleEvery > 0 {
		r.observe()
	}
	obs := r.obs
	rec := r.record(bneck, pktSize, cfg.BufferPkts, cfg.Warmup, cfg.QueueSampleEvery)

	var tracer *trace.Recorder
	if cfg.TraceTo != nil {
		tracer = trace.NewRecorder(cfg.TraceTo)
		tracer.PacketSize = pktSize
		bneck.SetTracer(tracer)
	}

	flows := workload.StartLongLived(r.engine, workload.LongLivedConfig{
		Hosts:       senders,
		Receiver:    rcv,
		TCP:         cfg.Protocol.TCP,
		StartJitter: cfg.RTT,
	})
	if obs != nil {
		obs.observeFlows(flows)
		if cfg.MetricsSampleEvery > 0 {
			r.every(cfg.MetricsSampleEvery, obs.sampler(bneck, pktSize, flows))
		}
	}

	// α sampling (Fig. 12): a periodic event records the mean α.
	var alphaSeries *stats.Series
	if cfg.AlphaSampleEvery > 0 {
		alphaSeries = stats.NewSeries("alpha")
		r.every(cfg.AlphaSampleEvery, func(now sim.Time) {
			alphaSeries.Add(now.Seconds(), flows.MeanAlpha())
		})
	}
	// Aggregate α as a time-weighted mean over the measured interval;
	// one α observation per RTT is plenty.
	var alphaAgg stats.TimeWeighted
	r.every(cfg.RTT, func(now sim.Time) {
		if now >= sim.FromDuration(cfg.Warmup) {
			alphaAgg.Observe(now.Seconds(), flows.MeanAlpha())
		}
	})

	// Snapshot bottleneck byte counts at the warmup boundary for the
	// utilization computation.
	var bytesAtWarmup uint64
	r.engine.Schedule(sim.FromDuration(cfg.Warmup), func() {
		bytesAtWarmup = bneck.Stats().BytesSent
	})
	if obs != nil {
		obs.observeUtilization(bneck, &bytesAtWarmup,
			cfg.Rate.BytesPerSecond()*cfg.Duration.Seconds())
	}

	end := sim.FromDuration(cfg.Warmup + cfg.Duration)
	if err := r.engine.RunUntil(end); err != nil {
		return nil, err
	}
	rec.Finish(end)
	alphaAgg.Finish(end.Seconds())

	res := &DumbbellResult{
		Protocol:      cfg.Protocol.Name,
		Flows:         cfg.Flows,
		QueueMeanPkts: rec.Mean(),
		QueueStdPkts:  rec.StdDev(),
		QueueMinPkts:  rec.Min(),
		QueueMaxPkts:  rec.Max(),
		QueueSeries:   rec.Series(),
		AlphaMean:     alphaAgg.Mean(),
		AlphaSeries:   alphaSeries,
		Outcome:       r.collect(star.Net, bneck, end, flows),
	}
	acked := make([]float64, len(flows.Senders))
	for i, snd := range flows.Senders {
		acked[i] = float64(snd.Acked())
		res.PerFlowAcked = append(res.PerFlowAcked, snd.Acked())
	}
	res.Fairness = stats.JainFairness(acked)
	sent := float64(bneck.Stats().BytesSent - bytesAtWarmup)
	res.Utilization = sent / (cfg.Rate.BytesPerSecond() * cfg.Duration.Seconds())

	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return nil, err
		}
	}

	if res.QueueSeries != nil {
		// Estimate the oscillation period on the post-warmup part of
		// the trace so the slow-start transient does not dominate.
		period, conf := stats.EstimatePeriod(res.QueueSeries.After(cfg.Warmup.Seconds()))
		res.OscPeriod = time.Duration(period * float64(time.Second))
		res.OscConfidence = conf
	}
	return res, nil
}

// FlowSweepPoint is one (N, result-pair) sample of the paper's Figs. 10–12
// sweep.
type FlowSweepPoint struct {
	// Flows is N.
	Flows int
	// Result is the dumbbell outcome at this N.
	Result *DumbbellResult
}

// SweepFlowsParallel runs the dumbbell at each flow count in flows,
// reusing every other parameter of base, on up to workers goroutines
// (values < 1 mean GOMAXPROCS). Every point builds a private engine
// seeded only by base.Seed, so results are byte-identical for any worker
// count; they are returned in the order of flows.
//
// A per-packet trace interleaves points nondeterministically when written
// from concurrent runs, so a non-nil base.TraceTo forces workers to 1.
func SweepFlowsParallel(ctx context.Context, base DumbbellConfig, flows []int, workers int) ([]FlowSweepPoint, error) {
	if base.TraceTo != nil {
		workers = 1
	}
	return sweep(ctx, flows, workers, "N=%d", func(n int) (FlowSweepPoint, error) {
		cfg := base
		cfg.Flows = n
		res, err := RunDumbbell(cfg)
		return FlowSweepPoint{Flows: n, Result: res}, err
	})
}

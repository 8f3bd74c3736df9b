package core

import (
	"errors"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/workload"
)

// BuildupConfig is the "queue buildup" microbenchmark the paper inherits
// from the DCTCP evaluation: a few long-lived flows keep the bottleneck
// busy while a latency-sensitive client repeatedly fetches short
// transfers through the same queue. The short flows' completion time
// exposes the standing queue each protocol maintains.
type BuildupConfig struct {
	// Protocol selects endpoints and queue law.
	Protocol Protocol
	// LongFlows is the number of background bulk flows (the DCTCP paper
	// uses 2).
	LongFlows int
	// ShortBytes is each short transfer's size (DCTCP paper: 20 KB).
	ShortBytes int64
	// ShortEvery is the idle gap between short transfers; zero selects
	// 1 ms.
	ShortEvery time.Duration
	// Rate, RTT, BufferPkts as in DumbbellConfig.
	Rate       netsim.Rate
	RTT        time.Duration
	BufferPkts int
	// Duration bounds the run; Warmup lets the background flows settle
	// before the first short transfer starts.
	Duration, Warmup time.Duration
	// Seed drives randomness.
	Seed int64
}

// BuildupResult summarizes the short flows' experience.
type BuildupResult struct {
	// Protocol echoes the configuration.
	Protocol string
	// ShortTransfers counts completed short flows.
	ShortTransfers int
	// MeanFCT, P95FCT, MaxFCT summarize short-flow completion times.
	MeanFCT, P95FCT, MaxFCT time.Duration
	// QueueMeanPkts is the bottleneck's time-weighted mean occupancy.
	QueueMeanPkts float64
	// BackgroundUtilization is the long flows' share of capacity.
	BackgroundUtilization float64

	// Outcome counts marks and drops at the bottleneck, and timeouts
	// and retransmissions over the long and the short flows.
	Outcome
}

// RunBuildup executes the microbenchmark.
func RunBuildup(cfg BuildupConfig) (*BuildupResult, error) {
	if cfg.LongFlows <= 0 || cfg.ShortBytes <= 0 {
		return nil, errors.New("core: LongFlows and ShortBytes must be positive")
	}
	if err := checkShared(cfg.Rate, cfg.RTT, cfg.BufferPkts, cfg.Duration, cfg.Warmup, 0); err != nil {
		return nil, err
	}
	if err := cfg.Protocol.validate(); err != nil {
		return nil, err
	}
	if cfg.ShortEvery < 0 {
		return nil, errors.New("core: ShortEvery must not be negative")
	}
	if cfg.ShortEvery == 0 {
		cfg.ShortEvery = time.Millisecond
	}

	// The last sender is the short-transfer client.
	r := newRun(cfg.Seed, 0)
	star, err := r.star(cfg.Protocol, cfg.LongFlows+1, cfg.Rate, cfg.RTT, cfg.BufferPkts, SharedBufferConfig{})
	if err != nil {
		return nil, err
	}
	engine, rcv := r.engine, star.Receiver
	longHosts, shortHost := star.Senders[:cfg.LongFlows], star.Senders[cfg.LongFlows]
	rec := r.record(star.Bottleneck, cfg.Protocol.PacketSize(), cfg.BufferPkts, cfg.Warmup, 0)

	bg := workload.StartLongLived(engine, workload.LongLivedConfig{
		Hosts:       longHosts,
		Receiver:    rcv,
		TCP:         cfg.Protocol.TCP,
		StartJitter: cfg.RTT,
	})

	// Sequential short transfers on fresh connections, starting after
	// warmup.
	var fcts []float64
	var shorts []*tcp.Sender
	const shortFlowBase = 1 << 20
	flowID := netsim.FlowID(shortFlowBase)
	var launch func()
	launch = func() {
		flow := flowID
		flowID++
		s := tcp.NewSender(shortHost, flow, rcv.ID(), cfg.ShortBytes, cfg.Protocol.TCP)
		shorts = append(shorts, s)
		tcp.NewReceiver(rcv, flow, shortHost.ID(), cfg.Protocol.TCP)
		started := engine.Now()
		s.OnComplete = func(_ *tcp.Sender, done sim.Time) {
			fcts = append(fcts, (done - started).Duration().Seconds())
			shortHost.Unregister(flow)
			rcv.Unregister(flow)
			engine.After(cfg.ShortEvery, launch)
		}
		s.Start()
	}
	engine.Schedule(sim.FromDuration(cfg.Warmup), launch)

	end := sim.FromDuration(cfg.Warmup + cfg.Duration)
	if err := r.until(end); err != nil {
		return nil, err
	}
	rec.Finish(end)
	if len(fcts) == 0 {
		return nil, errors.New("core: no short transfer completed; duration too small")
	}

	res := &BuildupResult{
		Protocol:       cfg.Protocol.Name,
		ShortTransfers: len(fcts),
		MeanFCT:        secondsToDuration(stats.Mean(fcts)),
		P95FCT:         secondsToDuration(stats.Quantile(fcts, 0.95)),
		MaxFCT:         secondsToDuration(stats.Quantile(fcts, 1)),
		QueueMeanPkts:  rec.Mean(),
		Outcome:        r.collect(star.Net, star.Bottleneck, end, bg),
	}
	for _, s := range shorts {
		st := s.Stats()
		res.Timeouts += st.Timeouts
		res.Retransmissions += st.Retransmissions
	}
	res.BackgroundUtilization = float64(bg.TotalAcked()) /
		(cfg.Rate.BytesPerSecond() * (cfg.Warmup + cfg.Duration).Seconds())
	return res, nil
}

// DefaultBuildup returns the DCTCP-paper parameters scaled to this
// repository's simulation defaults: 2 background flows and 20 KB short
// transfers on the 10 Gbps dumbbell.
func DefaultBuildup(p Protocol) BuildupConfig {
	return BuildupConfig{
		Protocol:   p,
		LongFlows:  2,
		ShortBytes: 20 << 10,
		ShortEvery: 500 * time.Microsecond,
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   60 * time.Millisecond,
		Warmup:     20 * time.Millisecond,
		Seed:       1,
	}
}

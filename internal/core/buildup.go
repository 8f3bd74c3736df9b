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

// The queue-buildup microbenchmark the paper inherits from the DCTCP
// evaluation runs on one fixed dumbbell: 2 long-lived background flows
// (as the DCTCP paper) keep the 10 Gbps, 100 µs RTT, 600-packet
// bottleneck busy while a latency-sensitive client fetches 20 KB short
// transfers through the same queue, one every 500 µs after the previous
// completes. Short transfers start once a 20 ms warmup has let the
// background settle, and the run measures 60 ms after it.
const (
	buildupLongFlows  = 2
	buildupShortBytes = 20 << 10
	buildupShortEvery = 500 * time.Microsecond
	buildupRate       = 10 * netsim.Gbps
	buildupRTT        = 100 * time.Microsecond
	buildupBufferPkts = 600
	buildupDuration   = 60 * time.Millisecond
	buildupWarmup     = 20 * time.Millisecond
	buildupSeed       = 1
)

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

// RunBuildup executes the queue-buildup microbenchmark under protocol p:
// the short flows' completion time exposes the standing queue p
// maintains.
func RunBuildup(p Protocol) (*BuildupResult, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}

	// The last sender is the short-transfer client.
	r := newRun(buildupSeed)
	star, err := r.star(p, buildupLongFlows+1, buildupRate, buildupRTT, buildupBufferPkts, SharedBufferConfig{})
	if err != nil {
		return nil, err
	}
	engine, rcv := r.engine, star.Receiver
	longHosts, shortHost := star.Senders[:buildupLongFlows], star.Senders[buildupLongFlows]
	rec := r.record(star.Bottleneck, p.PacketSize(), buildupBufferPkts, buildupWarmup, 0)

	bg := workload.StartLongLived(engine, workload.LongLivedConfig{
		Hosts:       longHosts,
		Receiver:    rcv,
		TCP:         p.TCP,
		StartJitter: buildupRTT,
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
		s := tcp.NewSender(shortHost, flow, rcv.ID(), buildupShortBytes, p.TCP)
		shorts = append(shorts, s)
		tcp.NewReceiver(rcv, flow, shortHost.ID(), p.TCP)
		started := engine.Now()
		s.OnComplete = func(_ *tcp.Sender, done sim.Time) {
			fcts = append(fcts, (done - started).Duration().Seconds())
			shortHost.Unregister(flow)
			rcv.Unregister(flow)
			engine.After(buildupShortEvery, launch)
		}
		s.Start()
	}
	engine.Schedule(sim.FromDuration(buildupWarmup), launch)

	end := sim.FromDuration(buildupWarmup + buildupDuration)
	if err := r.engine.RunUntil(end); err != nil {
		return nil, err
	}
	rec.Finish(end)
	if len(fcts) == 0 {
		return nil, errors.New("core: no short transfer completed in the measured interval")
	}

	res := &BuildupResult{
		Protocol:       p.Name,
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
		(buildupRate.BytesPerSecond() * (buildupWarmup + buildupDuration).Seconds())
	return res, nil
}

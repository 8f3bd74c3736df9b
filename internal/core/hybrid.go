package core

import (
	"errors"
	"fmt"
	"time"

	"dtdctcp/internal/fluid"
	"dtdctcp/internal/hybrid"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/workload"
)

// HybridConfig is the hybrid co-simulation scenario: BgFlows long-lived
// background flows share the dumbbell bottleneck with FgFlows foreground
// flows doing repeated fixed-size transfers. In hybrid mode (the
// default) the background flows are the fluid model of internal/fluid,
// coupled to the bottleneck port by internal/hybrid; with FullPacket
// they are real packet-level senders — the reference the conformance
// grid holds hybrid runs against.
type HybridConfig struct {
	// Protocol selects endpoints and queue law. Hybrid mode requires a
	// protocol with a marking law (the fluid model needs one).
	Protocol Protocol
	// BgFlows is the number of long-lived background flows.
	BgFlows int
	// FgFlows is the number of foreground flows; each repeatedly
	// transfers FgBytes with FgGap think time between transfers.
	FgFlows int
	FgBytes int64
	FgGap   time.Duration
	// Rate is the bottleneck link speed.
	Rate netsim.Rate
	// RTT is the zero-queue round-trip time.
	RTT time.Duration
	// BufferPkts is the bottleneck buffer in packets.
	BufferPkts int
	// Duration is the measured interval, after Warmup.
	Duration time.Duration
	// Warmup is excluded from queue statistics and foreground FCTs.
	Warmup time.Duration
	// QueueSampleEvery decimates the queue time series; zero disables
	// the series (aggregates are always collected).
	QueueSampleEvery time.Duration
	// FullPacket simulates the background flows packet-level instead of
	// coupling the fluid model — the conformance reference.
	FullPacket bool
	// Seed drives all randomness (start jitter).
	Seed int64
	// Metrics enables the observability registry snapshot. Collection
	// is pull-based: enabling it changes no event order and no result.
	Metrics bool
}

func (c HybridConfig) validate() error {
	if err := c.Protocol.validate(); err != nil {
		return err
	}
	switch {
	case c.BgFlows <= 0:
		return errors.New("core: BgFlows must be positive")
	case c.FgFlows < 0:
		return errors.New("core: FgFlows must not be negative")
	case c.FgFlows > 0 && c.FgBytes <= 0:
		return errors.New("core: FgBytes must be positive when FgFlows is set")
	case c.FgGap < 0:
		return errors.New("core: FgGap must not be negative")
	case !c.FullPacket && c.Protocol.MarkingLaw() == nil:
		return errors.New("core: hybrid mode requires a protocol with a marking law")
	}
	if err := checkFlowIDs("FgFlows", fgBaseFlow, int64(c.FgFlows)); err != nil {
		return err
	}
	// Only the packet reference opens the background's connections.
	if c.FullPacket {
		if err := checkFlowIDs("BgFlows", bgBaseFlow, int64(c.BgFlows)); err != nil {
			return err
		}
	}
	return checkShared(c.Rate, c.RTT, c.BufferPkts, c.Duration, c.Warmup, c.QueueSampleEvery)
}

// The first flow ids of the foreground and of the packet reference's
// background.
const (
	fgBaseFlow = 1
	bgBaseFlow = 1 << 20
)

// fluidConfig maps the scenario onto the background fluid model.
func (c HybridConfig) fluidConfig() fluid.Config {
	pktSize := c.Protocol.PacketSize()
	return fluid.Config{
		N:           float64(c.BgFlows),
		C:           c.Rate.BytesPerSecond() / float64(pktSize),
		D:           c.RTT.Seconds(),
		G:           c.Protocol.TCP.G,
		Law:         c.Protocol.MarkingLaw(),
		RTTRefQueue: c.Protocol.refQueue(),
		BufferLimit: float64(c.BufferPkts),
	}
}

// HybridResult aggregates one hybrid (or full-packet reference) run.
type HybridResult struct {
	// Protocol, Mode ("hybrid" or "packet"), BgFlows and FgFlows echo
	// the configuration.
	Protocol string `json:"protocol"`
	Mode     string `json:"mode"`
	BgFlows  int    `json:"bg_flows"`
	FgFlows  int    `json:"fg_flows"`

	// QueueMeanPkts and QueueStdPkts are time-weighted statistics of
	// the bottleneck's total occupancy — real packets plus the fluid
	// ambient contribution in hybrid mode — over the measured interval,
	// in packets. Min and Max bound the excursion.
	QueueMeanPkts float64 `json:"queue_mean_pkts"`
	QueueStdPkts  float64 `json:"queue_std_pkts"`
	QueueMinPkts  float64 `json:"queue_min_pkts"`
	QueueMaxPkts  float64 `json:"queue_max_pkts"`
	// QueueSeries is the decimated occupancy trace; nil when sampling
	// was disabled.
	QueueSeries *stats.Series `json:"-"`

	// OscPeriod is the dominant queue-oscillation period estimated by
	// autocorrelation on the post-warmup trace (zero when sampling was
	// disabled or no periodicity was found).
	OscPeriod     time.Duration `json:"osc_period_ns"`
	OscConfidence float64       `json:"osc_confidence"`

	// FluidFinal is the background model's final state; zero in packet
	// mode. CouplerTicks counts coupling exchanges.
	FluidFinal   fluid.State `json:"fluid_final"`
	CouplerTicks int         `json:"coupler_ticks"`

	// FgTransfers counts completed foreground transfers (warmup
	// included); FgFCTs lists post-warmup completion times in seconds,
	// in flow order, with mean and p99 precomputed.
	FgTransfers  int       `json:"fg_transfers"`
	FgFCTs       []float64 `json:"-"`
	FgFCTCount   int       `json:"fg_fct_count"`
	FgFCTMeanSec float64   `json:"fg_fct_mean_sec"`
	FgFCTP99Sec  float64   `json:"fg_fct_p99_sec"`

	// Outcome counts marks and drops at the bottleneck, and timeouts
	// and retransmissions over every packet-level sender.
	Outcome

	// Digest folds the queue statistics, trace, fluid state, and every
	// foreground FCT into one hex word; equal digests mean
	// byte-identical results.
	Digest string `json:"digest"`
}

// RunHybrid executes the scenario to completion and aggregates results.
func RunHybrid(cfg HybridConfig) (*HybridResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Foreground hosts first, then (packet mode only) background hosts,
	// so foreground flows get identical host identities in both modes.
	hosts := cfg.FgFlows
	if cfg.FullPacket {
		hosts += cfg.BgFlows
	}
	r := newRun(cfg.Seed)
	star, err := r.star(cfg.Protocol, hosts, cfg.Rate, cfg.RTT, cfg.BufferPkts, SharedBufferConfig{})
	if err != nil {
		return nil, err
	}
	bneck, rcv := star.Bottleneck, star.Receiver
	fgHosts, bgHosts := star.Senders[:cfg.FgFlows], star.Senders[cfg.FgFlows:]
	pktSize := cfg.Protocol.PacketSize()

	if cfg.Metrics {
		r.observe()
	}
	rec := r.record(bneck, pktSize, cfg.BufferPkts, cfg.Warmup, cfg.QueueSampleEvery)

	end := sim.FromDuration(cfg.Warmup + cfg.Duration)

	// Background load: fluid coupler in hybrid mode, real senders in
	// packet mode (bgHosts is empty in hybrid mode).
	bg := workload.StartLongLived(r.engine, workload.LongLivedConfig{
		Hosts:       bgHosts,
		Receiver:    rcv,
		TCP:         cfg.Protocol.TCP,
		BaseFlow:    bgBaseFlow,
		StartJitter: cfg.RTT,
	})
	var coupler *hybrid.Coupler
	if !cfg.FullPacket {
		coupler, err = hybrid.New(hybrid.Config{
			Fluid:   cfg.fluidConfig(),
			Port:    bneck,
			PktSize: pktSize,
			Horizon: cfg.Warmup + cfg.Duration,
		})
		if err != nil {
			return nil, err
		}
		coupler.Start(r.engine)
	}

	fg := workload.StartForeground(r.engine, workload.ForegroundConfig{
		Hosts:       fgHosts,
		Receiver:    rcv,
		Bytes:       cfg.FgBytes,
		Gap:         cfg.FgGap,
		TCP:         cfg.Protocol.TCP,
		BaseFlow:    fgBaseFlow,
		StartJitter: cfg.RTT,
		Horizon:     cfg.Warmup + cfg.Duration,
		Warmup:      cfg.Warmup,
	})

	if err := r.engine.RunUntil(end); err != nil {
		return nil, err
	}
	rec.Finish(end)

	res := &HybridResult{
		Protocol:      cfg.Protocol.Name,
		Mode:          "hybrid",
		BgFlows:       cfg.BgFlows,
		FgFlows:       cfg.FgFlows,
		QueueMeanPkts: rec.Mean(),
		QueueStdPkts:  rec.StdDev(),
		QueueMinPkts:  rec.Min(),
		QueueMaxPkts:  rec.Max(),
		QueueSeries:   rec.Series(),
		FgTransfers:   fg.Transfers(),
		FgFCTs:        fg.FCTs(),
		Outcome:       r.collect(star.Net, bneck, end, bg, fg),
	}
	if cfg.FullPacket {
		res.Mode = "packet"
	}
	if coupler != nil {
		res.FluidFinal = coupler.Stepper().State()
		res.CouplerTicks = coupler.Ticks()
	}
	res.FgFCTCount = len(res.FgFCTs)
	if res.FgFCTCount > 0 {
		res.FgFCTMeanSec = stats.Mean(res.FgFCTs)
		res.FgFCTP99Sec = stats.Quantile(res.FgFCTs, 0.99)
	}
	if res.QueueSeries != nil {
		period, conf := stats.EstimatePeriod(res.QueueSeries.After(cfg.Warmup.Seconds()))
		res.OscPeriod = time.Duration(period * float64(time.Second))
		res.OscConfidence = conf
	}
	res.Digest = res.digest()
	return res, nil
}

// digest folds every deterministic result field into one FNV-1a word:
// the exact bit patterns of the queue aggregates and trace, the fluid
// state, and every foreground FCT. Two runs agree on the digest iff they
// agree on all of them — "same seed → same result, with metrics on or
// off" is a one-word comparison.
func (r *HybridResult) digest() string {
	var h stats.Hash
	h.Float(r.QueueMeanPkts)
	h.Float(r.QueueStdPkts)
	h.Float(r.QueueMinPkts)
	h.Float(r.QueueMaxPkts)
	if r.QueueSeries != nil {
		h.Word(r.QueueSeries.Hash64())
	}
	h.Word(uint64(r.FluidFinal.Step))
	h.Float(r.FluidFinal.W)
	h.Float(r.FluidFinal.Alpha)
	h.Float(r.FluidFinal.Q)
	h.Word(uint64(r.CouplerTicks))
	h.Word(uint64(r.FgTransfers))
	for _, fct := range r.FgFCTs {
		h.Float(fct)
	}
	h.Word(r.Marks)
	h.Word(r.Drops)
	h.Word(r.Timeouts)
	return fmt.Sprintf("%016x", h.Sum64())
}

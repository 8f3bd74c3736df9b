package conform

import (
	"context"
	"fmt"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/stats"
)

// Digest is a compact deterministic fingerprint of one simulator run:
// event and marking counters in the clear, plus FNV-1a checksums over
// the sampled queue/α series, the per-flow byte counts, and the bit
// patterns of the float aggregates. Committed under testdata/golden/,
// a digest pins the simulator byte-for-byte — any change to event
// ordering, RNG consumption, or float arithmetic flips a hash — while
// staying small enough to diff by eye.
//
// Digests are stable across repeated runs, across -workers settings, and
// across builds of the same source on the same architecture. They are
// not guaranteed stable across architectures (the compiler may fuse
// multiply-adds differently); regenerate with
//
//	go test ./internal/conform -run Golden -update
//
// when a deliberate simulator change shifts them.
type Digest struct {
	// Scenario, Protocol and Flows echo the configuration.
	Scenario string `json:"scenario"`
	Protocol string `json:"protocol"`
	Flows    int    `json:"flows"`

	// Events is the number of simulator events processed.
	Events uint64 `json:"events"`
	// Marks, Drops and Timeouts count bottleneck CE marks, overflow
	// drops, and sender RTOs.
	Marks    uint64 `json:"marks"`
	Drops    uint64 `json:"drops"`
	Timeouts uint64 `json:"timeouts"`
	// AckedBytes is the sum of per-flow acknowledged bytes.
	AckedBytes int64 `json:"acked_bytes"`
	// QueueSamples counts the decimated queue-series samples.
	QueueSamples int `json:"queue_samples"`

	// QueueHash and AlphaHash checksum the sampled series (instants and
	// values, exact float bits).
	QueueHash string `json:"queue_hash"`
	AlphaHash string `json:"alpha_hash"`
	// FlowHash checksums the per-flow acknowledged byte counts in flow
	// order.
	FlowHash string `json:"flow_hash"`
	// StatsHash checksums the float aggregates (queue mean/σ/min/max,
	// α mean, utilization, fairness, oscillation period and confidence).
	StatsHash string `json:"stats_hash"`
}

// Golden is one named run of the golden-digest suite.
type Golden struct {
	Name string
	run  func() (Digest, error)
}

// Goldens returns the golden-run suite, regenerable with
//
//	go test ./internal/conform -run Golden -update
//
// Five short paper dumbbells cover both protocols in the stable and
// oscillatory regimes plus a threshold variant — enough surface that a
// determinism regression anywhere in the engine, netsim, tcp, aqm, or
// stats layers flips at least one digest. Three zoo dumbbells pin the
// DCTCP+ pacing path, the phantom marker, and the shared-buffer admission
// path. Three fresh-connection incasts open and retire a sender/receiver
// pair per worker per round, the churn path no dumbbell reaches: DCTCP at
// 32 workers is deep in collapse (overflow drops, RTOs, late duplicates
// for retired flows); the delayed-ACK and DCTCP+ points add the
// receiver's and the pacer's timers to what a connection carries.
func Goldens() []Golden {
	g := 1.0 / 16
	short := func(p core.Protocol, flows int) core.DumbbellConfig {
		return paperDumbbell(flows, 5*time.Millisecond, 20*time.Millisecond).config(p)
	}
	paper := func(name string, p core.Protocol, flows int) Golden {
		return dumbbellGolden(name, short(p, flows))
	}
	pool := short(core.DCTCP(40, g), 40)
	pool.SharedBuffer = core.SharedBufferConfig{Alpha: 2}
	incast := func(name string, p core.Protocol, workers int) Golden {
		cfg := core.DefaultTestbed(p, workers)
		cfg.FreshConnections = true
		return Golden{name, func() (Digest, error) { return digestIncast(cfg, 30) }}
	}
	delack := core.DCTCP(21, g)
	delack.TCP.AckEvery = 2
	return []Golden{
		paper("golden-dctcp-k40-n10", core.DCTCP(40, g), 10),
		paper("golden-dctcp-k40-n80", core.DCTCP(40, g), 80),
		paper("golden-dt3050-n10", core.DTDCTCP(30, 50, g), 10),
		paper("golden-dt3050-n80", core.DTDCTCP(30, 50, g), 80),
		paper("golden-dt4060-n40", core.DTDCTCP(40, 60, g), 40),
		paper("golden-zoo-plus-n16", core.DCTCPPlus(40, g), 16),
		paper("golden-zoo-hull-g95-n20", core.HULL(40, 0.95, 10*netsim.Gbps, g), 20),
		dumbbellGolden("golden-zoo-sharedbuf-a2-n40", pool),
		incast("golden-incast-fresh-dctcp-w32", core.DCTCP(21, g), 32),
		incast("golden-incast-fresh-delack-w32", delack, 32),
		incast("golden-incast-fresh-plus-w24", core.DCTCPPlus(20, g), 24),
	}
}

// dumbbellGolden fingerprints a dumbbell run with the α series sampled
// once per RTT.
func dumbbellGolden(name string, cfg core.DumbbellConfig) Golden {
	cfg.AlphaSampleEvery = cfg.RTT
	return Golden{name, func() (Digest, error) { return digestDumbbell(cfg) }}
}

// DigestGoldens fingerprints the goldens concurrently on up to workers
// goroutines (values < 1 mean GOMAXPROCS); digests come back in input
// order and are byte-identical for any worker count.
func DigestGoldens(ctx context.Context, goldens []Golden, workers int) ([]Digest, error) {
	return runner.Map(ctx, len(goldens), runner.Options{Workers: workers},
		func(_ context.Context, i int) (Digest, error) {
			d, err := goldens[i].run()
			if err != nil {
				return Digest{}, fmt.Errorf("conform %s: digest run: %w", goldens[i].Name, err)
			}
			d.Scenario = goldens[i].Name
			return d, nil
		})
}

// digestDumbbell runs one dumbbell configuration and fingerprints the
// result: counters in the clear, the sampled series, per-flow bytes and
// the float aggregates hashed.
func digestDumbbell(cfg core.DumbbellConfig) (Digest, error) {
	res, err := core.RunDumbbell(cfg)
	if err != nil {
		return Digest{}, err
	}
	d := Digest{
		Protocol: res.Protocol,
		Flows:    res.Flows,
		Events:   res.Events,
		Marks:    res.Marks,
		Drops:    res.Drops,
		Timeouts: res.Timeouts,
	}
	if res.QueueSeries != nil {
		d.QueueSamples = res.QueueSeries.Len()
		d.QueueHash = fmt.Sprintf("%016x", res.QueueSeries.Hash64())
	}
	if res.AlphaSeries != nil {
		d.AlphaHash = fmt.Sprintf("%016x", res.AlphaSeries.Hash64())
	}

	var fh, sh stats.Hash
	for _, acked := range res.PerFlowAcked {
		d.AckedBytes += acked
		fh.Word(uint64(acked))
	}
	d.FlowHash = fmt.Sprintf("%016x", fh.Sum64())

	for _, v := range []float64{
		res.QueueMeanPkts, res.QueueStdPkts, res.QueueMinPkts, res.QueueMaxPkts,
		res.AlphaMean, res.Utilization, res.Fairness,
		res.OscPeriod.Seconds(), res.OscConfidence,
	} {
		sh.Float(v)
	}
	d.StatsHash = fmt.Sprintf("%016x", sh.Sum64())
	return d, nil
}

// digestIncast fingerprints an incast of the given rounds: counters in
// the clear, the round aggregates (goodput bits, completion
// mean/p95/max/σ, rounds, deadline misses) under StatsHash. The series
// and per-flow fields of Digest stay zero — a query run samples no queue.
func digestIncast(cfg core.TestbedConfig, rounds int) (Digest, error) {
	res, err := core.RunIncast(cfg, rounds)
	if err != nil {
		return Digest{}, err
	}
	var sh stats.Hash
	sh.Float(res.MeanGoodputBps)
	for _, v := range []uint64{
		uint64(res.MeanCompletion), uint64(res.P95Completion), uint64(res.MaxCompletion),
		uint64(res.CompletionStdDev), uint64(res.Rounds), uint64(res.MissedDeadlines),
	} {
		sh.Word(v)
	}
	return Digest{
		Protocol:  res.Protocol,
		Flows:     res.Workers,
		Events:    res.Events,
		Drops:     res.Drops,
		Timeouts:  res.Timeouts,
		StatsHash: fmt.Sprintf("%016x", sh.Sum64()),
	}, nil
}

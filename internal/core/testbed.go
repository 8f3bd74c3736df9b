package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/stats"
	"dtdctcp/internal/workload"
)

// TestbedConfig reproduces the paper's NetFPGA testbed (Fig. 13) in the
// simulator: one core switch (Switch 1) with the aggregator host and three
// edge switches, workers spread round-robin across the edges, every link
// at 1 Gbps. The bottleneck is the core→aggregator port: it carries the
// protocol's marking law and a 128 KB buffer; all other ports are
// DropTail with 512 KB, exactly as the paper configures it.
type TestbedConfig struct {
	// Protocol selects endpoints and the bottleneck queue law.
	Protocol Protocol
	// Workers is the number of responding servers (the paper's testbed
	// has 9 physical workers but scales flows beyond that; we scale
	// hosts with the flow count, which the simulator affords).
	Workers int
	// Deadline, when positive, gives every response a per-round
	// completion deadline; D2TCP endpoints modulate their backoff with
	// it and QueryResult reports the miss rate for every variant.
	Deadline time.Duration
	// FreshConnections opens new connections (slow start) every round.
	// The default — persistent connections whose congestion state
	// carries across rounds — matches the classic incast benchmark
	// setup the paper inherits from Nagle et al.
	FreshConnections bool
	// Seed drives randomness.
	Seed int64
	// Metrics enables the observability registry: the result carries a
	// Snapshot covering the engine and the bottleneck port. Pull-based,
	// so enabling it changes nothing else.
	Metrics bool
}

// DefaultTestbed returns the paper's testbed parameters for a protocol.
func DefaultTestbed(p Protocol, workers int) TestbedConfig {
	return TestbedConfig{
		Protocol: p,
		Workers:  workers,
		Seed:     1,
	}
}

func (c TestbedConfig) validate() error {
	switch {
	case c.Workers <= 0:
		return errors.New("core: Workers must be positive")
	case c.Deadline < 0:
		return errors.New("core: Deadline must not be negative")
	}
	return c.Protocol.validate()
}

// testbed is a built topology ready to carry queries.
type testbed struct {
	*run
	aggregator *netsim.Host
	workers    []*netsim.Host
	bneck      *netsim.Port
}

// The Fig. 13 apparatus is fixed. The paper's NetFPGA cards run every
// port at 1 Gbps; the core→aggregator bottleneck has a 128 KB buffer and
// every other port 512 KB; hosts on one switch see ≈100 µs RTT, i.e.
// ≈25 µs per traversal. Worker responses are staggered by up to 50 µs
// (request fan-out serialization and host scheduling noise, present on
// any real testbed, absent in a perfectly synchronized simulator), and
// the aggregator thinks 100 µs between rounds.
const (
	testbedRate        = 1 * netsim.Gbps
	testbedBneckBuffer = 128 << 10
	testbedEdgeBuffer  = 512 << 10
	testbedHopDelay    = 25 * time.Microsecond
	testbedStartJitter = 50 * time.Microsecond
	testbedGap         = 100 * time.Microsecond
)

// buildTestbed constructs the Fig. 13 topology.
func buildTestbed(cfg TestbedConfig) (*testbed, error) {
	r := newRun(cfg.Seed, 1)
	nw := netsim.NewNetwork(r.engine)
	core := nw.AddSwitch("switch1")
	agg := nw.AddHost("aggregator")

	edge := netsim.PortConfig{Rate: testbedRate, Delay: testbedHopDelay, Buffer: testbedEdgeBuffer}
	bneckCfg := netsim.PortConfig{Rate: testbedRate, Delay: testbedHopDelay, Buffer: testbedBneckBuffer, Policy: cfg.Protocol.NewPolicy(r.engine.Rand())}
	if err := nw.Connect(agg, core, edge, bneckCfg); err != nil {
		return nil, err
	}

	const edges = 3
	edgeSwitches := make([]*netsim.Switch, edges)
	for i := range edgeSwitches {
		edgeSwitches[i] = nw.AddSwitch(fmt.Sprintf("switch%d", i+2))
		if err := nw.Connect(edgeSwitches[i], core, edge, edge); err != nil {
			return nil, err
		}
	}
	workers := make([]*netsim.Host, cfg.Workers)
	for i := range workers {
		workers[i] = nw.AddHost(fmt.Sprintf("worker%d", i))
		if err := nw.Connect(workers[i], edgeSwitches[i%edges], edge, edge); err != nil {
			return nil, err
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		return nil, err
	}
	bneck := core.PortTo(agg.ID())
	pktSize := cfg.Protocol.PacketSize()
	bufferPkts := testbedBneckBuffer / pktSize
	if bufferPkts < 1 {
		bufferPkts = 1
	}
	if cfg.Metrics {
		r.observe()
		bneck.SetMonitor(r.obs.observePort("bottleneck", bneck, pktSize, bufferPkts))
	}
	return &testbed{run: r, aggregator: agg, workers: workers, bneck: bneck}, nil
}

// QueryResult aggregates a repeated synchronized query experiment.
type QueryResult struct {
	// Protocol and Workers echo the configuration.
	Protocol string
	Workers  int
	// Rounds is the number of completed repetitions.
	Rounds int
	// MeanGoodputBps is the average per-round application goodput
	// (Fig. 14's y-axis).
	MeanGoodputBps float64
	// MeanCompletion, P95Completion, MaxCompletion summarize the
	// query completion times (Fig. 15's y-axis).
	MeanCompletion, P95Completion, MaxCompletion time.Duration
	// CompletionStdDev is the standard deviation of completion times,
	// the "severe oscillation" the paper reports for DCTCP near
	// collapse.
	CompletionStdDev time.Duration
	// MissedDeadlines counts worker responses that finished past their
	// deadline, and DeadlineMissRate normalizes it by the total number
	// of responses (0 when no deadline was configured).
	MissedDeadlines  int
	DeadlineMissRate float64

	// Outcome counts marks and drops at the bottleneck; its Timeouts,
	// the mechanism of Incast collapse, sum over every round.
	Outcome
}

// RunQuery executes rounds of a synchronized query on the testbed:
// every worker sends bytesPerWorker to the aggregator simultaneously and
// the round ends when all responses are delivered. This is the paper's
// Incast experiment when bytesPerWorker is fixed (64 KB, Fig. 14) and the
// completion-time experiment when bytesPerWorker = 1 MB ÷ workers
// (Fig. 15).
func RunQuery(cfg TestbedConfig, bytesPerWorker int64, rounds int) (*QueryResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if bytesPerWorker <= 0 || rounds <= 0 {
		return nil, errors.New("core: bytesPerWorker and rounds must be positive")
	}
	tb, err := buildTestbed(cfg)
	if err != nil {
		return nil, err
	}
	queries := workload.StartQueries(tb.engine, workload.QueryConfig{
		Workers:        tb.workers,
		Aggregator:     tb.aggregator,
		BytesPerWorker: bytesPerWorker,
		Rounds:         rounds,
		Gap:            testbedGap,
		TCP:            cfg.Protocol.TCP,
		Persistent:     !cfg.FreshConnections,
		StartJitter:    testbedStartJitter,
		Deadline:       cfg.Deadline,
	})

	// Generous horizon: every round can absorb several full backoff
	// chains before we declare the run wedged.
	horizon := time.Duration(rounds) * (10*time.Second + 4*time.Duration(cfg.Workers)*time.Millisecond)
	end := sim.FromDuration(horizon)
	if err := tb.until(end); err != nil {
		return nil, err
	}
	if !queries.Done() {
		return nil, fmt.Errorf("core: query run incomplete after %v: %d/%d rounds",
			horizon, len(queries.Rounds()), rounds)
	}

	times := queries.CompletionTimes()
	goodputs := queries.GoodputsBps()
	res := &QueryResult{
		Protocol:         cfg.Protocol.Name,
		Workers:          cfg.Workers,
		Rounds:           len(queries.Rounds()),
		MeanGoodputBps:   stats.Mean(goodputs),
		MeanCompletion:   secondsToDuration(stats.Mean(times)),
		P95Completion:    secondsToDuration(stats.Quantile(times, 0.95)),
		MaxCompletion:    secondsToDuration(stats.Quantile(times, 1)),
		CompletionStdDev: secondsToDuration(stats.StdDev(times)),
		MissedDeadlines:  queries.TotalMissedDeadlines(),
		Outcome:          tb.collect(tb.aggregator.Network(), tb.bneck, end, queries),
	}
	if cfg.Deadline > 0 {
		total := float64(res.Rounds * cfg.Workers)
		if total > 0 {
			res.DeadlineMissRate = float64(res.MissedDeadlines) / total
		}
	}
	return res, nil
}

// RunIncast is the Fig. 14 experiment: fixed 64 KB per worker.
func RunIncast(cfg TestbedConfig, rounds int) (*QueryResult, error) {
	return RunQuery(cfg, 64<<10, rounds)
}

// RunCompletionTime is the Fig. 15 experiment: 1 MB split evenly over the
// workers.
func RunCompletionTime(cfg TestbedConfig, rounds int) (*QueryResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	per := int64(1<<20) / int64(cfg.Workers)
	if per <= 0 {
		return nil, errors.New("core: too many workers for 1 MB query")
	}
	return RunQuery(cfg, per, rounds)
}

// WorkerSweepPoint is one (n, result) sample of the Figs. 14–15 sweeps.
type WorkerSweepPoint struct {
	// Workers is the synchronized flow count.
	Workers int
	// Result is the query outcome at this count.
	Result *QueryResult
}

// SweepWorkersParallel repeats run for each worker count, cloning base,
// on up to par goroutines (values < 1 mean GOMAXPROCS). Each point builds
// a private testbed seeded only by base.Seed, so results are
// byte-identical for any worker count; they are returned in the order of
// workers.
func SweepWorkersParallel(ctx context.Context, base TestbedConfig, workers []int, rounds, par int,
	run func(TestbedConfig, int) (*QueryResult, error)) ([]WorkerSweepPoint, error) {
	return sweep(ctx, workers, par, 1, "workers=%d", func(n int) (WorkerSweepPoint, error) {
		cfg := base
		cfg.Workers = n
		res, err := run(cfg, rounds)
		return WorkerSweepPoint{Workers: n, Result: res}, err
	})
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

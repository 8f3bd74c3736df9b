package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"dtdctcp/internal/core"
	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/topo"
)

// workload is one named set of inputs. Every workload is a closed-loop
// batch: a repetition simulates a fixed amount of work to completion, so
// a slower simulator takes longer and is not offered less. The input
// sizes below are part of each name's definition.
type workload struct {
	name, why string
	// prepare builds the inputs from the seed. quick shrinks the
	// simulated work to about a twentieth, for smoke runs and tests.
	prepare func(seed int64, quick bool) (*scenario, error)
}

// scenario is a prepared workload.
type scenario struct {
	// rep runs one end-to-end repetition — build, run, collect —
	// through the entry points users call.
	rep func(o runOpts) (outcome, error)
	// refs, when set, takes the traced pass's reference measurements:
	// runs that are not a repetition but that a per-layer metric needs.
	// base is the median untraced repetition.
	refs func(tr *tracer, base timing) (map[string]float64, error)
	// sharded marks the workload whose CPU profile is read for the cost
	// of synchronising event wheels.
	sharded bool
}

// runOpts selects what a repetition observes; the zero value observes
// nothing, which is how end-to-end repetitions run.
type runOpts struct {
	metrics bool    // run with the pull-based registry (Metrics: true)
	tr      *tracer // record spans around the calls into core
}

// outcome is what one repetition produced.
type outcome struct {
	// digest folds every simulated result of the repetition; equal
	// digests mean the simulator did the same thing.
	digest string
	// attempted and failed count simulated operations: flows, rounds,
	// sweep points, foreground transfers, ladder rungs.
	attempted, failed int
	// counts are exact for a seed: events, marks, drops, rto, completed.
	counts map[string]uint64
	// layer holds per-layer values read from result fields and rungs.
	layer map[string]float64
	// reg accumulates the registry snapshots of a Metrics: true run.
	reg registryTotals
}

func newOutcome() outcome {
	return outcome{counts: map[string]uint64{}, layer: map[string]float64{}}
}

// fail marks every operation of the repetition failed: a degenerate run
// produced no signal, whatever it completed.
func (o *outcome) fail() {
	if o.attempted < 1 {
		o.attempted = 1
	}
	o.failed = o.attempted
}

// registryTotals sums the engine, bottleneck-port and sender counters of
// the repo's own registry over the runs of one repetition.
type registryTotals struct {
	seen                              bool
	scheduled, cancelled, compactions uint64
	freeHits, freeMisses              uint64
	pendingMax                        float64
	enqueued, marked, dropped         uint64
	segments, retransmissions         uint64
}

func (t *registryTotals) add(s *metrics.Snapshot) {
	if s == nil {
		return
	}
	t.seen = true
	t.scheduled += s.CounterValue("sim_events_scheduled_total")
	t.cancelled += s.CounterValue("sim_events_cancelled_total")
	t.compactions += s.CounterValue("sim_queue_compactions_total")
	t.freeHits += s.CounterValue("sim_free_list_hits_total")
	t.freeMisses += s.CounterValue("sim_free_list_misses_total")
	t.pendingMax = math.Max(t.pendingMax, s.GaugeValue("sim_events_pending_max"))
	const port = `{port="bottleneck"}`
	t.enqueued += s.CounterValue("port_enqueued_total" + port)
	t.marked += s.CounterValue("port_marked_total" + port)
	t.dropped += s.CounterValue("port_dropped_overflow_total" + port)
	t.segments += s.CounterValue("tcp_segments_sent_total")
	t.retransmissions += s.CounterValue("tcp_retransmissions_total")
}

// fill writes the totals as per-layer metrics. The registry instruments
// the bottleneck port and long-lived senders only, so a workload without
// them leaves those metrics at 0.
func (t registryTotals) fill(layer map[string]float64) {
	if !t.seen {
		return
	}
	layer["sim.pending_max"] = t.pendingMax
	layer["sim.compactions"] = float64(t.compactions)
	layer["sim.cancelled_ratio"] = ratio(t.cancelled, t.scheduled)
	layer["sim.free_list_hit_rate"] = ratio(t.freeHits, t.freeHits+t.freeMisses)
	layer["netsim.enqueued"] = float64(t.enqueued)
	layer["netsim.marked"] = float64(t.marked)
	layer["netsim.dropped"] = float64(t.dropped)
	layer["tcp.segments_sent"] = float64(t.segments)
	layer["tcp.retx_ratio"] = ratio(t.retransmissions, t.segments)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digest is FNV-1a over exact bit patterns, as the repo's own result
// digests are.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d digest) str(s string) { d.h.Write([]byte(s)) }

func (d digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// shrink divides a full-size quantity for quick mode.
func shrink[T int | time.Duration](full T, quick bool) T {
	if quick {
		return full / 20
	}
	return full
}

var workloads = []workload{
	{
		name:    "dumbbell_n40",
		why:     "steady ACK-clocked state, no churn or loss, 0.4 MB allocated: the event heap and the port/AQM forward path do nearly all the work",
		prepare: prepareDumbbell,
	},
	{
		name:    "incast_w32",
		why:     "same sim/netsim/tcp layers under slow-start bursts, overflow drops, RTO arm/cancel and per-round connection churn; timer or allocation costs show here",
		prepare: prepareIncast,
	},
	{
		name: "fabric_k4",
		why:  "ECMP fat-tree, trace-driven arrivals, thousands of short connections over five-hop paths: set-up, bytes per flow and a deep pending-event set matter",
		prepare: func(seed int64, quick bool) (*scenario, error) {
			return prepareFabric(seed, shrink(3600, quick), 0)
		},
	},
	{
		name: "fabric_k4_shards2",
		why:  "the only path through sim.ShardedEngine and the netsim partition; read against fabric_k4, which must not pay for sharding",
		prepare: func(seed int64, quick bool) (*scenario, error) {
			return prepareFabric(seed, shrink(2400, quick), 2)
		},
	},
	{
		name:    "hybrid_bg60",
		why:     "fluid.Stepper and the coupler dominate and the packet layers do little: a heap or port gain predicts no change here, a fluid gain moves only this row",
		prepare: prepareHybrid,
	},
	{
		name:    "sweep_w2",
		why:     "internal/runner is the parallelism users rely on: shows set-up, GC and cache contention between two concurrent engines",
		prepare: prepareSweep,
	},
	{
		name:    "ladder",
		why:     "each layer's public functions driven in isolation at fixed op counts, so a layer's marginal ns/op is known before and after a change to it",
		prepare: prepareLadder,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prepareDumbbell is the paper's Fig. 1 point: 40 long-lived flows on a
// 10 Gbps, 100 µs bottleneck with a 600-packet buffer, run once under
// DCTCP(K=40) and once under DT-DCTCP(30,50).
func prepareDumbbell(seed int64, quick bool) (*scenario, error) {
	base := core.DumbbellConfig{
		Flows:      40,
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Warmup:     10 * time.Millisecond,
		Duration:   shrink(900*time.Millisecond, quick),
		Seed:       seed,
	}
	protos := []struct {
		key string
		p   core.Protocol
	}{
		{"dctcp", core.DCTCP(40, 1.0/16)},
		{"dt", core.DTDCTCP(30, 50, 1.0/16)},
	}
	rep := func(o runOpts) (outcome, error) {
		out := newOutcome()
		d := newDigest()
		for _, pr := range protos {
			cfg := base
			cfg.Protocol = pr.p
			cfg.Metrics = o.metrics
			done := o.tr.span("core.RunDumbbell[" + pr.key + "]")
			res, err := core.RunDumbbell(cfg)
			done()
			if err != nil {
				return out, err
			}
			d.f64(res.QueueMeanPkts, res.QueueStdPkts, res.QueueMinPkts, res.QueueMaxPkts, res.AlphaMean, res.Utilization, res.Fairness)
			d.u64(res.Marks, res.Drops, res.Timeouts, res.Events)
			for _, acked := range res.PerFlowAcked {
				d.u64(uint64(acked))
				out.attempted++
				if acked == 0 {
					out.failed++
				}
			}
			out.counts["events"] += res.Events
			out.counts["marks"] += res.Marks
			out.counts["drops"] += res.Drops
			out.counts["rto"] += res.Timeouts
			out.layer["core.queue_std_pkts_"+pr.key] = res.QueueStdPkts
			if pr.key == "dctcp" {
				out.layer["core.utilization"] = res.Utilization
			}
			out.reg.add(res.Metrics)
		}
		out.counts["completed"] = uint64(out.attempted - out.failed)
		out.digest = d.String()
		return out, nil
	}
	return &scenario{rep: rep}, nil
}

// prepareIncast is the paper's testbed with 32 workers answering 64 KB
// each over fresh connections, at DCTCP(K=21): deep in incast collapse,
// where most rounds wait out a 200 ms RTO.
func prepareIncast(seed int64, quick bool) (*scenario, error) {
	cfg := core.DefaultTestbed(core.DCTCP(21, 1.0/16), 32)
	cfg.FreshConnections = true
	cfg.Seed = seed
	rounds := shrink(760, quick)
	rep := func(o runOpts) (outcome, error) {
		out := newOutcome()
		c := cfg
		c.Metrics = o.metrics
		done := o.tr.span("core.RunIncast")
		res, err := core.RunIncast(c, rounds)
		done()
		if err != nil {
			return out, err
		}
		d := newDigest()
		d.f64(res.MeanGoodputBps)
		d.u64(uint64(res.MeanCompletion), uint64(res.P95Completion), uint64(res.MaxCompletion), uint64(res.CompletionStdDev),
			res.Timeouts, res.Drops, res.Events, uint64(res.Rounds))
		out.digest = d.String()
		out.attempted = rounds
		out.failed = rounds - res.Rounds
		out.counts["events"] = res.Events
		out.counts["drops"] = res.Drops
		out.counts["rto"] = res.Timeouts
		out.counts["completed"] = uint64(res.Rounds)
		out.layer["workload.rounds_completed"] = float64(res.Rounds)
		out.layer["core.incast_completion_ms"] = res.MeanCompletion.Seconds() * 1e3
		out.layer["core.incast_goodput_mbps"] = res.MeanGoodputBps / 1e6
		out.reg.add(res.Metrics)
		return out, nil
	}
	return &scenario{rep: rep}, nil
}

// prepareFabric is a k=4 fat-tree of 1 Gbps links carrying a
// websearch-small trace at 0.6 of bisection bandwidth under DCTCP(K=20),
// serial (shards = 0) or on two event wheels.
func prepareFabric(seed int64, flows, shards int) (*scenario, error) {
	cdf, err := flowgen.BuiltinCDF("websearch-small")
	if err != nil {
		return nil, err
	}
	cfg := core.FabricConfig{
		Protocol:   core.DCTCP(20, 1.0/16),
		Topology:   "fattree",
		K:          4,
		Rate:       netsim.Gbps,
		HopDelay:   10 * time.Microsecond,
		BufferPkts: 100,
		CDF:        cdf,
		Load:       0.6,
		Flows:      flows,
		Matrix:     flowgen.Random,
		Seed:       seed,
		Shards:     shards,
	}
	run := func(c core.FabricConfig, tr *tracer, name string) (outcome, error) {
		out := newOutcome()
		done := tr.span(name)
		res, err := core.RunFabric(c)
		done()
		if err != nil {
			return out, err
		}
		out.digest = fabricDigest(res.Digest, res.Marks, res.Drops, res.Timeouts, res.Retransmissions, res.Completed)
		out.attempted = res.Flows
		out.failed = res.Flows - res.Completed
		out.counts["events"] = res.Events
		out.counts["marks"] = res.Marks
		out.counts["drops"] = res.Drops
		out.counts["rto"] = res.Timeouts
		out.counts["completed"] = uint64(res.Completed)
		out.layer["flowgen.flows_completed"] = float64(res.Completed)
		var sum float64
		for _, b := range res.FCT {
			sum += b.MeanSeconds * float64(b.Completed)
		}
		if res.Completed > 0 {
			out.layer["core.fct_mean_ms"] = sum / float64(res.Completed) * 1e3
		}
		out.layer["core.fct_small_p99_ms"] = res.FCT[0].P99Seconds * 1e3
		out.reg.add(res.Metrics)
		return out, nil
	}
	sc := &scenario{sharded: shards > 1}
	sc.rep = func(o runOpts) (outcome, error) {
		c := cfg
		c.Metrics = o.metrics
		return run(c, o.tr, "core.RunFabric")
	}
	if shards > 1 {
		// The same trace on one wheel: the sharding contract says the
		// digest is equal, the ledger asks what the second wheel bought.
		sc.refs = func(tr *tracer, base timing) (map[string]float64, error) {
			c := cfg
			c.Shards = 0
			serial, err := measure(func() (outcome, error) { return run(c, tr, "core.RunFabric[serial-ref]") })
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"sim.shard_speedup":       serial.wall / base.wall,
				"sim.shard_cpu_over_wall": base.cpu / base.wall,
				"core.digest_match":       boolMetric(serial.out.digest == base.out.digest),
			}, nil
		}
		return sc, nil
	}
	sc.refs = func(tr *tracer, base timing) (map[string]float64, error) {
		m, err := fabricMirror(tr, cfg)
		if err != nil {
			return nil, err
		}
		m.layer["core.digest_match"] = boolMetric(m.digest == base.out.digest)
		return m.layer, nil
	}
	return sc, nil
}

// fabricDigest folds a fabric run's workload digest (every flow's trace
// entry and completion time) with its loss and recovery counts.
func fabricDigest(flowDigest string, marks, drops, rto, retx uint64, completed int) string {
	d := newDigest()
	d.str(flowDigest)
	d.u64(marks, drops, rto, retx, uint64(completed))
	return d.String()
}

func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// mirror is what the fabric mirror measured.
type mirror struct {
	digest string
	layer  map[string]float64
}

// fabricMirror composes core.RunFabric's serial fat-tree run from the
// layers' public builders, in the same order, with a span around each
// call; the phase metrics are read back from those spans, so tr must not
// be nil. Its digest must equal the repetition's: that is what makes the
// spans a statement about RunFabric.
func fabricMirror(tr *tracer, cfg core.FabricConfig) (mirror, error) {
	defer tr.span("mirror")()
	var m mirror

	done := tr.span("sim.NewEngine")
	engine := sim.NewEngine(cfg.Seed)
	done()
	done = tr.span("netsim.NewNetwork")
	nw := netsim.NewNetwork(engine)
	done()

	pktSize := cfg.Protocol.PacketSize()
	link := topo.LinkSpec{Rate: cfg.Rate, Delay: cfg.HopDelay, BufferBytes: cfg.BufferPkts * pktSize}
	done = tr.span("topo.FatTree")
	fab, err := topo.FatTree(nw, cfg.K, topo.Config{HostLink: link, FabricLink: link, Policy: cfg.Protocol.NewPolicy})
	done()
	if err != nil {
		return m, err
	}

	// RunFabric watches the core and aggregation tiers; so does the mirror.
	width := math.Max(1, float64(cfg.BufferPkts)/64)
	bounds := metrics.LinearBounds(width, width, 64)
	for _, ports := range [][]*netsim.Port{fab.CorePorts(), fab.AggPorts()} {
		for _, p := range ports {
			p.SetMonitor(metrics.NewQueueDepthMonitor(metrics.NewHistogram(bounds), pktSize))
		}
	}

	heap0 := liveHeap()
	done = tr.span("flowgen.Start")
	w, err := flowgen.Start(fab.Hosts, flowgen.Config{
		CDF:         cfg.CDF,
		Load:        cfg.Load,
		CapacityBps: fab.BisectionBps(),
		Flows:       cfg.Flows,
		Matrix:      cfg.Matrix,
		TCP:         cfg.Protocol.TCP,
	})
	done()
	if err != nil {
		return m, err
	}
	heap1 := liveHeap()

	done = tr.span("Engine.RunUntil")
	err = engine.RunUntil(w.LastArrival().Add(2 * time.Second))
	done()
	if err != nil {
		return m, err
	}

	done = tr.span("collect")
	w.FCTStats(100_000, 1_000_000)
	var enq, marked, dropped uint64
	for _, sw := range nw.Switches() {
		for i := 0; i < sw.Ports(); i++ {
			st := sw.Port(i).Stats()
			enq += st.Enqueued
			marked += st.Marked
			dropped += st.DroppedOverflow
		}
	}
	m.digest = fabricDigest(fmt.Sprintf("%016x", w.Digest()), marked, dropped, w.TotalTimeouts(), w.TotalRetransmissions(), w.Completed())
	w.Cleanup()
	done()

	m.layer = map[string]float64{
		"topo.build_k4_ms":       tr.seconds("topo.FatTree") * 1e3,
		"flowgen.start_ms":       tr.seconds("flowgen.Start") * 1e3,
		"flowgen.bytes_per_flow": (heap1 - heap0) / float64(cfg.Flows),
		"netsim.enqueued":        float64(enq),
		"netsim.marked":          float64(marked),
		"netsim.dropped":         float64(dropped),
	}
	return m, nil
}

// liveHeap is the heap in use after a collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// prepareHybrid runs 60 background flows as the fluid model against 4
// packet-level foreground flows of 20 KB transfers — the largest point
// of the hybrid conformance grid, where the foreground is alive.
func prepareHybrid(seed int64, quick bool) (*scenario, error) {
	cfg := core.HybridConfig{
		Protocol:   core.DCTCP(40, 1.0/16),
		BgFlows:    60,
		FgFlows:    4,
		FgBytes:    20_000,
		FgGap:      500 * time.Microsecond,
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Warmup:     15 * time.Millisecond,
		Duration:   shrink(25*time.Second, quick),
		Seed:       seed,
	}
	run := func(c core.HybridConfig, tr *tracer, name string) (*core.HybridResult, error) {
		defer tr.span(name)()
		return core.RunHybrid(c)
	}
	rep := func(o runOpts) (outcome, error) {
		out := newOutcome()
		c := cfg
		c.Metrics = o.metrics
		res, err := run(c, o.tr, "core.RunHybrid")
		if err != nil {
			return out, err
		}
		out.digest = res.Digest
		out.attempted = res.FgTransfers
		// A starved foreground or a queue pinned at the buffer is a run
		// outside the fluid model's regime, not a result.
		if res.FgTransfers == 0 || res.QueueMaxPkts >= float64(cfg.BufferPkts) {
			out.fail()
		}
		out.counts["events"] = res.Events
		out.counts["marks"] = res.Marks
		out.counts["drops"] = res.Drops
		out.counts["rto"] = res.Timeouts
		out.counts["completed"] = uint64(res.FgTransfers)
		out.layer["hybrid.ticks"] = float64(res.CouplerTicks)
		out.layer["hybrid.fg_transfers"] = float64(res.FgTransfers)
		out.layer["fluid.steps"] = float64(res.FluidFinal.Step)
		out.reg.add(res.Metrics)
		return out, nil
	}
	// What the fluid background buys and costs, against the same 500 ms
	// with every background flow simulated packet by packet.
	refs := func(tr *tracer, _ timing) (map[string]float64, error) {
		c := cfg
		c.Duration = shrink(500*time.Millisecond, quick)
		hyb, err := run(c, tr, "core.RunHybrid[hybrid-ref]")
		if err != nil {
			return nil, err
		}
		c.FullPacket = true
		pkt, err := run(c, tr, "core.RunHybrid[packet-ref]")
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"hybrid.event_ratio":        ratio(pkt.Events, hyb.Events),
			"hybrid.queue_mean_rel_err": math.Abs(hyb.QueueMeanPkts-pkt.QueueMeanPkts) / pkt.QueueMeanPkts,
		}, nil
	}
	return &scenario{rep: rep, refs: refs}, nil
}

// prepareSweep is the Figs. 10–12 sweep over N = 10…120 flows on two
// runner workers.
func prepareSweep(seed int64, quick bool) (*scenario, error) {
	base := core.DumbbellConfig{
		Protocol:   core.DCTCP(40, 1.0/16),
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Warmup:     5 * time.Millisecond,
		Duration:   shrink(260*time.Millisecond, quick),
		Seed:       seed,
	}
	flows := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	run := func(o runOpts, workers int) (outcome, error) {
		out := newOutcome()
		cfg := base
		cfg.Metrics = o.metrics
		done := o.tr.span(fmt.Sprintf("core.SweepFlowsParallel[w=%d]", workers))
		pts, err := core.SweepFlowsParallel(context.Background(), cfg, flows, workers)
		done()
		if err != nil {
			return out, err
		}
		d := newDigest()
		out.attempted = len(flows)
		for _, pt := range pts {
			res := pt.Result
			d.f64(res.QueueMeanPkts, res.QueueStdPkts, res.AlphaMean, res.Utilization)
			d.u64(uint64(pt.Flows), res.Marks, res.Drops, res.Timeouts, res.Events)
			// A point that moved no data produced no figure.
			if res.Utilization <= 0 {
				out.failed++
			}
			out.counts["events"] += res.Events
			out.counts["marks"] += res.Marks
			out.counts["drops"] += res.Drops
			out.counts["rto"] += res.Timeouts
			out.reg.add(res.Metrics)
		}
		out.counts["completed"] = uint64(out.attempted - out.failed)
		out.digest = d.String()
		return out, nil
	}
	return &scenario{
		rep: func(o runOpts) (outcome, error) { return run(o, 2) },
		refs: func(tr *tracer, base timing) (map[string]float64, error) {
			one, err := measure(func() (outcome, error) { return run(runOpts{tr: tr}, 1) })
			if err != nil {
				return nil, err
			}
			return map[string]float64{
				"runner.speedup_w2":    one.wall / base.wall,
				"runner.cpu_over_wall": base.cpu / base.wall,
				"core.digest_match":    boolMetric(one.out.digest == base.out.digest),
			}, nil
		},
	}, nil
}

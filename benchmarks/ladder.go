package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/runner"
	"dtdctcp/internal/sim"
	"dtdctcp/internal/tcp"
	"dtdctcp/internal/topo"
)

// rung drives one layer's public functions a fixed number of times and
// reports the cost of one operation. Op counts are sized for about a
// tenth of a second a rung; a rung's figure is the median over the
// repetitions of the ladder.
type rung struct {
	// metric is the per-layer metric the rung reports, and unit scales
	// seconds per operation into the metric's unit (1e9 for ns).
	metric string
	unit   float64
	ops    int
	run    func(seed int64, ops int) (rungResult, error)
}

// rungResult is one rung's timing. check folds what the rung computed,
// so the ladder has a digest like every other workload; the clock covers
// only the operations, not the rung's own set-up.
type rungResult struct {
	elapsed    time.Duration
	check      uint64
	allocBytes uint64 // bytes allocated per operation, where the rung counts them
}

var rungs = []rung{
	{"sim.chain_ns", 1e9, 6_000_000, rungChain},
	{"sim.hold_d1k_ns", 1e9, 900_000, rungHold(1 << 10)},
	{"sim.hold_d64k_ns", 1e9, 350_000, rungHold(1 << 16)},
	{"sim.timer_reset_ns", 1e9, 7_000_000, rungTimerReset},
	{"netsim.forward_ns", 1e9, 500_000, rungForward(func() aqm.Policy { return aqm.NewDropTail() })},
	{"netsim.forward_dt_ns", 1e9, 500_000, rungForward(func() aqm.Policy { return aqm.NewDoubleThresholdPackets(30, 50, 1500) })},
	{"aqm.single_verdict_ns", 1e9, 40_000_000, rungVerdict(func() aqm.Policy { return aqm.NewSingleThresholdPackets(40, 1500) })},
	{"aqm.double_verdict_ns", 1e9, 24_000_000, rungVerdict(func() aqm.Policy { return aqm.NewDoubleThresholdPackets(30, 50, 1500) })},
	{"tcp.flow_ns_per_seg", 1e9, 300_000, rungFlow},
	{"tcp.conn_new_ns", 1e9, 120_000, rungConnNew},
	{"fluid.step_ns", 1e9, 1_200_000, rungFluidStep},
	{"flowgen.start_ms", 1e3, 60, rungFlowgenStart},
	{"topo.build_k4_ms", 1e3, 360, rungFatTree(4)},
	{"topo.build_k8_ms", 1e3, 14, rungFatTree(8)},
	{"metrics.hist_observe_ns", 1e9, 14_000_000, rungHistObserve},
	{"runner.map_overhead_us", 1e6, 60_000, rungMapEmpty},
}

// prepareLadder is the ablation ladder: every rung, in order, once a
// repetition.
func prepareLadder(seed int64, quick bool) (*scenario, error) {
	rep := func(o runOpts) (outcome, error) {
		out := newOutcome()
		d := newDigest()
		for _, r := range rungs {
			ops := r.ops
			if quick {
				ops = max(1, ops/20)
			}
			done := o.tr.span("rung[" + r.metric + "]")
			res, err := r.run(seed, ops)
			done()
			out.attempted++
			if err != nil {
				return out, fmt.Errorf("%s: %w", r.metric, err)
			}
			d.u64(res.check)
			out.layer[r.metric] = res.elapsed.Seconds() / float64(ops) * r.unit
			if res.allocBytes > 0 {
				out.layer["tcp.conn_alloc_bytes"] = float64(res.allocBytes)
			}
		}
		out.counts["completed"] = uint64(out.attempted)
		out.digest = d.String()
		return out, nil
	}
	return &scenario{rep: rep}, nil
}

// rungChain is one self-rescheduling event: the heap never holds more
// than one entry, so this is the engine's fixed cost per event.
func rungChain(seed int64, ops int) (rungResult, error) {
	e := sim.NewEngine(seed)
	remaining := ops
	var step func()
	step = func() {
		remaining--
		if remaining > 0 {
			e.After(time.Microsecond, step)
		}
	}
	t0 := time.Now()
	e.After(time.Microsecond, step)
	err := e.Run()
	return rungResult{elapsed: time.Since(t0), check: uint64(e.Now())}, err
}

// rungHold is the classic hold model: with depth events pending, pop the
// earliest and push one at a random later instant. The cost per
// operation is the heap's at that depth.
func rungHold(depth int) func(int64, int) (rungResult, error) {
	return func(seed int64, ops int) (rungResult, error) {
		e := sim.NewEngine(seed)
		// A private generator a multiply and an add long, so the rung
		// times the heap and not math/rand.
		x := uint64(seed)*2862933555777941757 + 3037000493
		next := func() time.Duration {
			x = x*6364136223846793005 + 1442695040888963407
			return time.Duration(1 + x>>53)
		}
		remaining := ops
		var step func()
		step = func() {
			remaining--
			if remaining <= 0 {
				e.Stop()
				return
			}
			e.After(next(), step)
		}
		for i := 0; i < depth; i++ {
			e.After(next(), step)
		}
		t0 := time.Now()
		err := e.Run()
		elapsed := time.Since(t0)
		if errors.Is(err, sim.ErrStopped) {
			err = nil
		}
		return rungResult{elapsed: elapsed, check: uint64(e.Now())}, err
	}
}

// rungTimerReset rearms one timer, the RTO pattern: every rearm cancels
// the pending deadline lazily and the engine compacts behind it.
func rungTimerReset(seed int64, ops int) (rungResult, error) {
	e := sim.NewEngine(seed)
	tm := sim.NewTimer(e, func() {})
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		tm.Reset(time.Millisecond)
		if i%4096 == 4095 {
			if err := e.RunUntil(e.Now()); err != nil {
				return rungResult{}, err
			}
		}
	}
	tm.Stop()
	elapsed := time.Since(t0)
	return rungResult{elapsed: elapsed, check: e.Stats().Cancelled}, nil
}

type countingSink struct{ n uint64 }

func (s *countingSink) Deliver(*netsim.Packet) { s.n++ }

// rungForward sends packets host → switch → host in bursts of 256, so
// the switch port queues, serializes, consults its queue law and
// propagates every one.
func rungForward(policy func() aqm.Policy) func(int64, int) (rungResult, error) {
	return func(seed int64, ops int) (rungResult, error) {
		e := sim.NewEngine(seed)
		n := netsim.NewNetwork(e)
		src, dst, sw := n.AddHost("src"), n.AddHost("dst"), n.AddSwitch("sw")
		cfg := func() netsim.PortConfig {
			return netsim.PortConfig{Rate: 100 * netsim.Gbps, Delay: time.Microsecond, Buffer: 1 << 24, Policy: policy()}
		}
		if err := n.Connect(src, sw, cfg(), cfg()); err != nil {
			return rungResult{}, err
		}
		if err := n.Connect(dst, sw, cfg(), cfg()); err != nil {
			return rungResult{}, err
		}
		if err := n.ComputeRoutes(); err != nil {
			return rungResult{}, err
		}
		sink := &countingSink{}
		dst.Register(1, sink)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			pkt := n.AllocPacket()
			pkt.Flow = 1
			pkt.Dst = dst.ID()
			pkt.Size = 1500
			pkt.ECT = true
			src.Send(pkt)
			if i%256 == 255 {
				if err := e.Run(); err != nil {
					return rungResult{}, err
				}
			}
		}
		err := e.Run()
		elapsed := time.Since(t0)
		if err == nil && sink.n != uint64(ops) {
			err = fmt.Errorf("delivered %d of %d packets", sink.n, ops)
		}
		return rungResult{elapsed: elapsed, check: sink.n<<32 | sw.PortTo(dst.ID()).Stats().Marked}, err
	}
}

// rungVerdict asks a queue law for its arrival verdict while the
// occupancy sweeps a triangle through the thresholds.
func rungVerdict(policy func() aqm.Policy) func(int64, int) (rungResult, error) {
	return func(_ int64, ops int) (rungResult, error) {
		p := policy()
		const peak = 128 // packets
		var sum uint64
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			q := i % (2 * peak)
			if q > peak {
				q = 2*peak - q
			}
			sum += uint64(p.OnArrival(sim.TimeZero, q*1500, 1500))
		}
		return rungResult{elapsed: time.Since(t0), check: sum}, nil
	}
}

// twoHosts links two hosts directly at 10 Gbps; a's uplink marks at 40
// packets so a DCTCP sender on it settles instead of filling the buffer.
func twoHosts(seed int64) (*sim.Engine, *netsim.Host, *netsim.Host, error) {
	e := sim.NewEngine(seed)
	n := netsim.NewNetwork(e)
	a, b := n.AddHost("a"), n.AddHost("b")
	link := netsim.PortConfig{Rate: 10 * netsim.Gbps, Delay: 10 * time.Microsecond, Buffer: 600 * 1500}
	marking := link
	marking.Policy = aqm.NewSingleThresholdPackets(40, 1500)
	if err := n.Connect(a, b, marking, link); err != nil {
		return nil, nil, nil, err
	}
	return e, a, b, n.ComputeRoutes()
}

// rungFlow carries one DCTCP flow of ops segments over a two-host link:
// sender, receiver, ACK clock and α updates with no switch between.
func rungFlow(seed int64, ops int) (rungResult, error) {
	e, a, b, err := twoHosts(seed)
	if err != nil {
		return rungResult{}, err
	}
	cfg := tcp.DefaultConfig(tcp.DCTCP)
	snd := tcp.NewSender(a, 1, b.ID(), int64(ops)*int64(cfg.MSS), cfg)
	tcp.NewReceiver(b, 1, a.ID(), cfg)
	t0 := time.Now()
	snd.Start()
	err = e.Run()
	elapsed := time.Since(t0)
	if err == nil && !snd.Completed() {
		err = fmt.Errorf("flow stalled at %d bytes", snd.Acked())
	}
	return rungResult{elapsed: elapsed, check: uint64(snd.CompletionTime()) ^ snd.Stats().SegmentsSent}, err
}

// rungConnNew constructs and tears down sender/receiver pairs: what a
// fresh connection costs before it sends anything.
func rungConnNew(seed int64, ops int) (rungResult, error) {
	_, a, b, err := twoHosts(seed)
	if err != nil {
		return rungResult{}, err
	}
	cfg := tcp.DefaultConfig(tcp.DCTCP)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var check uint64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		id := netsim.FlowID(i + 1)
		snd := tcp.NewSender(a, id, b.ID(), 1<<20, cfg)
		tcp.NewReceiver(b, id, a.ID(), cfg)
		check += uint64(snd.Flow())
		a.Unregister(id)
		b.Unregister(id)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return rungResult{elapsed: elapsed, check: check, allocBytes: (m1.TotalAlloc - m0.TotalAlloc) / uint64(ops)}, nil
}

// rungFluidStep advances the 60-flow background model of hybrid_bg60 one
// RK4 step at a time.
func rungFluidStep(_ int64, ops int) (rungResult, error) {
	st, err := fluid.NewStepper(fluid.Config{
		N:           60,
		C:           10e9 / 8 / 1500,
		D:           100e-6,
		G:           1.0 / 16,
		Law:         fluid.SingleThreshold{K: 40},
		RTTRefQueue: 40,
		BufferLimit: 600,
	})
	if err != nil {
		return rungResult{}, err
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		st.Step()
	}
	elapsed := time.Since(t0)
	s := st.State()
	return rungResult{elapsed: elapsed, check: math.Float64bits(s.Q) ^ math.Float64bits(s.W) ^ math.Float64bits(s.Alpha)}, nil
}

func fatTree(seed int64, k int) (*topo.Fabric, error) {
	link := topo.LinkSpec{Rate: netsim.Gbps, Delay: 10 * time.Microsecond, BufferBytes: 100 * 1500}
	return topo.FatTree(netsim.NewNetwork(sim.NewEngine(seed)), k, topo.Config{
		HostLink:   link,
		FabricLink: link,
		Policy:     func(*rand.Rand) aqm.Policy { return aqm.NewSingleThresholdPackets(20, 1500) },
	})
}

// rungFlowgenStart draws a 1000-flow trace and wires its connections
// onto a fresh k=4 fat-tree; only Start is on the clock.
func rungFlowgenStart(seed int64, ops int) (rungResult, error) {
	cdf, err := flowgen.BuiltinCDF("websearch-small")
	if err != nil {
		return rungResult{}, err
	}
	var res rungResult
	for i := 0; i < ops; i++ {
		fab, err := fatTree(seed, 4)
		if err != nil {
			return res, err
		}
		t0 := time.Now()
		w, err := flowgen.Start(fab.Hosts, flowgen.Config{
			CDF:         cdf,
			Load:        0.6,
			CapacityBps: fab.BisectionBps(),
			Flows:       1000,
			TCP:         tcp.DefaultConfig(tcp.DCTCP),
		})
		res.elapsed += time.Since(t0)
		if err != nil {
			return res, err
		}
		res.check ^= w.Digest()
	}
	return res, nil
}

// rungFatTree builds a k-ary fat-tree with its ECMP routes.
func rungFatTree(k int) func(int64, int) (rungResult, error) {
	return func(seed int64, ops int) (rungResult, error) {
		var res rungResult
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			fab, err := fatTree(seed, k)
			if err != nil {
				return res, err
			}
			res.check += uint64(len(fab.Hosts)) ^ fab.Salt
		}
		res.elapsed = time.Since(t0)
		return res, nil
	}
}

// rungHistObserve records into a 64-bucket histogram, the shape the
// queue-depth monitors use.
func rungHistObserve(_ int64, ops int) (rungResult, error) {
	h := metrics.NewHistogram(metrics.LinearBounds(1, 1, 64))
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		h.Observe(float64(i&127) * 0.7)
	}
	return rungResult{elapsed: time.Since(t0), check: h.Count() ^ math.Float64bits(h.Sum())}, nil
}

// rungMapEmpty maps twelve empty jobs over two workers, sweep_w2's
// shape: what the runner costs a sweep before any point simulates.
func rungMapEmpty(_ int64, ops int) (rungResult, error) {
	var res rungResult
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		out, err := runner.Map(context.Background(), 12, runner.Options{Workers: 2},
			func(_ context.Context, j int) (int, error) { return j, nil })
		if err != nil {
			return res, err
		}
		res.check += uint64(out[11])
	}
	res.elapsed = time.Since(t0)
	return res, nil
}

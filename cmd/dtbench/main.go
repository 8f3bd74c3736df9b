// Command dtbench measures the simulator's hot paths and writes the
// numbers as machine-readable JSON, so performance regressions show up as
// diffs instead of anecdotes.
//
// It replays the repo's own benchmarks through testing.Benchmark — the
// event kernel (schedule/run, self-scheduling chains, timer rearm), the
// netsim forwarding path, a full dumbbell run with allocations-per-event
// accounting, and a sweep-scaling probe that times the same sweep at
// workers=1 and workers=GOMAXPROCS.
//
// Usage:
//
//	dtbench                        # print the snapshot to stdout
//	dtbench -o BENCH_baseline.json # merge into a baseline file: the
//	                               # previous Current moves to History
//	dtbench -label after-pool      # tag the snapshot
//	dtbench -quick                 # smaller dumbbell/sweep (CI smoke)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"dtdctcp"
	"dtdctcp/internal/aqm"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/netsim"
	"dtdctcp/internal/report"
	"dtdctcp/internal/sim"
)

// Metric is one benchmark result. GOMAXPROCS and NumCPU are recorded
// per metric — not just once per snapshot — so a number pasted out of
// context still carries the hardware it was measured on.
type Metric struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// EventsPerSec is derived for kernel benchmarks where one op is one
	// event (zero elsewhere).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
}

// DumbbellMetric profiles one full experiment run.
type DumbbellMetric struct {
	Flows          int     `json:"flows"`
	SimMillis      int64   `json:"sim_millis"`
	Events         uint64  `json:"events"`
	WallMillis     float64 `json:"wall_millis"`
	Mallocs        uint64  `json:"mallocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// OverheadMetric compares the same dumbbell run with the observability
// registry off and on, measured as interleaved A/B pairs: each pair runs
// both sides back to back so a load spike lands on both arms instead of
// inflating one whole side, and the reported delta is the median across
// pairs. The event counts must match exactly, since pull-based
// instrumentation is required not to change the simulation.
type OverheadMetric struct {
	// Runs is the number of interleaved base/metrics pairs measured
	// (after one discarded warm-up pair).
	Runs              int     `json:"runs"`
	Events            uint64  `json:"events"`
	BaseNsPerEvent    float64 `json:"base_ns_per_event"`
	MetricsNsPerEvent float64 `json:"metrics_ns_per_event"`
	// DeltaPercent is the median paired (metrics − base) delta ÷ the
	// median base × 100; the test suite pins the delta itself, in ns.
	DeltaPercent float64 `json:"delta_percent"`
}

// SweepMetric times one sweep serially and in parallel.
type SweepMetric struct {
	Points         int     `json:"points"`
	Workers        int     `json:"workers"`
	SerialMillis   float64 `json:"serial_millis"`
	ParallelMillis float64 `json:"parallel_millis"`
	Speedup        float64 `json:"speedup"`
	// PerCoreEfficiency is Speedup ÷ min(Workers, NumCPU): 1.0 means the
	// extra cores were fully converted into throughput.
	PerCoreEfficiency float64 `json:"per_core_efficiency"`
}

// ShardPoint is one shard-count measurement of the identical testbed
// run.
type ShardPoint struct {
	Shards       int     `json:"shards"`
	Events       uint64  `json:"events"`
	WallMillis   float64 `json:"wall_millis"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is events/sec relative to the shards=1 point.
	Speedup float64 `json:"speedup"`
}

// ShardScalingMetric reruns the same 4-switch incast testbed at
// increasing shard counts. Sharding is required to be byte-deterministic,
// so the Events column may only vary by the fixed rounds−1 bookkeeping
// events the serial engine keeps on its own wheel — the sharded points
// must all match exactly. Read Speedup against GOMAXPROCS/NumCPU: on a
// single-core box every shards>1 point measures pure synchronization
// overhead, not parallelism, and speedups below 1.0 are the honest
// result.
type ShardScalingMetric struct {
	Workers    int          `json:"workers"`
	Rounds     int          `json:"rounds"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Points     []ShardPoint `json:"points"`
}

// Snapshot is one complete dtbench run.
type Snapshot struct {
	Label        string              `json:"label"`
	Timestamp    string              `json:"timestamp"`
	GoVersion    string              `json:"go_version"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	NumCPU       int                 `json:"num_cpu"`
	Metrics      []Metric            `json:"metrics"`
	Dumbbell     *DumbbellMetric     `json:"dumbbell,omitempty"`
	Overhead     *OverheadMetric     `json:"overhead,omitempty"`
	Sweep        *SweepMetric        `json:"sweep,omitempty"`
	ShardScaling *ShardScalingMetric `json:"shard_scaling,omitempty"`
}

const schema = "dtbench/v1"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dtbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dtbench", flag.ContinueOnError)
	var (
		out        = fs.String("o", "", "merge the snapshot into this JSON file (previous current moves to history)")
		label      = fs.String("label", "", "snapshot label (default: timestamp)")
		quick      = fs.Bool("quick", false, "smaller dumbbell and sweep for a fast smoke pass")
		shards     = fs.Int("shards", 8, "largest shard count in the shard-scaling family (powers of two from 1; 0 skips it)")
		metricsOut = fs.String("metrics", "", "write the instrumented dumbbell's observability snapshot as JSON to this path")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		stop, err := metrics.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}

	snap := measure(*quick, *shards)
	if *metricsOut != "" {
		cfg := dumbbellConfig(*quick)
		cfg.Metrics = true
		res, err := dtdctcp.RunDumbbell(cfg)
		if err != nil {
			return err
		}
		if err := metrics.WriteFile(*metricsOut, []metrics.Named{{Name: "dumbbell", Snapshot: res.Metrics}}); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		defer metrics.WriteHeapProfile(*memProfile)
	}
	snap.Label = *label
	if snap.Label == "" {
		snap.Label = snap.Timestamp
	}

	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	return report.Merge(*out, schema, snap)
}

func measure(quick bool, maxShards int) *Snapshot {
	snap := &Snapshot{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	kernel := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"sim/ScheduleRun", benchScheduleRun},
		{"sim/EventChain", benchEventChain},
		{"sim/TimerReset", benchTimerReset},
		{"netsim/ForwardDropTail", benchForwardDropTail},
	}
	for _, k := range kernel {
		r := testing.Benchmark(k.fn)
		m := Metric{
			Name:        k.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
		}
		if m.NsPerOp > 0 {
			m.EventsPerSec = 1e9 / m.NsPerOp
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	snap.Dumbbell = measureDumbbell(quick)
	snap.Overhead = measureOverhead(quick)
	snap.Sweep = measureSweep(quick)
	if maxShards > 0 {
		snap.ShardScaling = measureShardScaling(quick, maxShards)
	}
	return snap
}

// --- kernel benchmarks (mirrors of the _test.go benchmarks, which a
// command cannot import) ---

func benchScheduleRun(b *testing.B) {
	e := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+sim.Time(i%64), func() {})
		if i%1024 == 1023 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchEventChain(b *testing.B) {
	e := sim.NewEngine(1)
	remaining := b.N
	var step func()
	step = func() {
		remaining--
		if remaining > 0 {
			e.After(time.Microsecond, step)
		}
	}
	b.ReportAllocs()
	e.After(time.Microsecond, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchTimerReset(b *testing.B) {
	e := sim.NewEngine(1)
	tm := sim.NewTimer(e, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Millisecond)
		if i%4096 == 4095 {
			if err := e.RunUntil(e.Now()); err != nil {
				b.Fatal(err)
			}
		}
	}
	tm.Stop()
}

type benchSink struct{ n int }

func (s *benchSink) Deliver(*netsim.Packet) { s.n++ }

func benchForwardDropTail(b *testing.B) {
	e := sim.NewEngine(1)
	n := netsim.NewNetwork(e)
	src := n.AddHost("src")
	dst := n.AddHost("dst")
	sw := n.AddSwitch("sw")
	cfg := netsim.PortConfig{Rate: 100 * netsim.Gbps, Delay: time.Microsecond, Buffer: 1 << 24, Policy: aqm.NewDropTail()}
	if err := n.Connect(src, sw, cfg, cfg); err != nil {
		b.Fatal(err)
	}
	if err := n.Connect(dst, sw, cfg, cfg); err != nil {
		b.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		b.Fatal(err)
	}
	sink := &benchSink{}
	dst.Register(1, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := n.AllocPacket()
		pkt.Flow = 1
		pkt.Dst = dst.ID()
		pkt.Size = 1500
		pkt.ECT = true
		src.Send(pkt)
		if i%256 == 255 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if sink.n == 0 {
		b.Fatal("nothing delivered")
	}
}

// dumbbellConfig is the paper-scale run shared by the dumbbell profile,
// the overhead pair, and the -metrics export.
func dumbbellConfig(quick bool) dtdctcp.DumbbellConfig {
	cfg := dtdctcp.DumbbellConfig{
		Protocol:   dtdctcp.DCTCP(40, 1.0/16),
		Flows:      40,
		Rate:       10 * dtdctcp.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   40 * time.Millisecond,
		Warmup:     10 * time.Millisecond,
		Seed:       1,
	}
	if quick {
		cfg.Flows = 10
		cfg.Duration = 10 * time.Millisecond
		cfg.Warmup = 2 * time.Millisecond
	}
	return cfg
}

// measureDumbbell runs one paper-scale dumbbell and reports the malloc
// count per simulated event.
func measureDumbbell(quick bool) *DumbbellMetric {
	cfg := dumbbellConfig(quick)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := dtdctcp.RunDumbbell(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		// Benchmarks must not mask simulator breakage.
		panic(err)
	}
	m := &DumbbellMetric{
		Flows:      cfg.Flows,
		SimMillis:  (cfg.Duration + cfg.Warmup).Milliseconds(),
		Events:     res.Events,
		WallMillis: float64(wall.Microseconds()) / 1e3,
		Mallocs:    after.Mallocs - before.Mallocs,
	}
	if res.Events > 0 {
		m.AllocsPerEvent = float64(m.Mallocs) / float64(res.Events)
		m.EventsPerSec = float64(res.Events) / wall.Seconds()
	}
	return m
}

// measureOverhead times the identical dumbbell with metrics off and on
// as interleaved A/B pairs and reports the median paired ns-per-event
// delta. Timing each whole side in its own wall-clock window is
// one-sided under load — a spike inflates only the side it lands on, and
// min-of-N per side cannot repair that — so each pair runs both sides
// back to back (alternating in-pair order to cancel monotonic drift) and
// the median across pairs discards the pairs a spike still split. Event
// counts from both sides must match — pull-based instrumentation may not
// alter the simulation — and a mismatch panics rather than reporting a
// meaningless comparison.
func measureOverhead(quick bool) *OverheadMetric {
	cfg := dumbbellConfig(quick)
	// Seven pairs even in quick mode: the median only moves if four
	// pairs are disturbed at once, and each pair costs milliseconds on
	// the quick dumbbell and ~a quarter second at full size.
	const pairs = 7
	timeRun := func(withMetrics bool) (ns float64, events uint64) {
		c := cfg
		c.Metrics = withMetrics
		start := time.Now()
		res, err := dtdctcp.RunDumbbell(c)
		wall := time.Since(start)
		if err != nil {
			panic(err)
		}
		return float64(wall.Nanoseconds()) / float64(res.Events), res.Events
	}
	// One discarded warm-up pair lets the allocator and caches settle.
	timeRun(false)
	timeRun(true)
	baseNs := make([]float64, pairs)
	deltaNs := make([]float64, pairs)
	var baseEvents, metEvents uint64
	for i := range deltaNs {
		// Each arm is the min of two runs — timing noise is upward
		// spikes, and taking the min inside the pair damps them
		// symmetrically. The mirrored orders (b,m,m,b then m,b,b,m)
		// cancel monotonic drift across the pair.
		var b, met float64
		if i%2 == 0 {
			b, baseEvents = timeRun(false)
			met, metEvents = timeRun(true)
			if m2, _ := timeRun(true); m2 < met {
				met = m2
			}
			if b2, _ := timeRun(false); b2 < b {
				b = b2
			}
		} else {
			met, metEvents = timeRun(true)
			b, baseEvents = timeRun(false)
			if b2, _ := timeRun(false); b2 < b {
				b = b2
			}
			if m2, _ := timeRun(true); m2 < met {
				met = m2
			}
		}
		baseNs[i] = b
		deltaNs[i] = met - b
	}
	if baseEvents != metEvents {
		panic(fmt.Sprintf("dtbench: metrics changed the run: %d events without vs %d with", baseEvents, metEvents))
	}
	base := median(baseNs)
	delta := median(deltaNs)
	m := &OverheadMetric{
		Runs:              pairs,
		Events:            baseEvents,
		BaseNsPerEvent:    base,
		MetricsNsPerEvent: base + delta,
	}
	if base > 0 {
		m.DeltaPercent = delta / base * 100
	}
	return m
}

// median returns the middle value of xs (mean of the middle two for even
// lengths) without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// measureSweep times the same flow sweep at workers=1 and
// workers=GOMAXPROCS and reports the per-core scaling efficiency.
func measureSweep(quick bool) *SweepMetric {
	base := dtdctcp.DumbbellConfig{
		Protocol:   dtdctcp.DCTCP(40, 1.0/16),
		Rate:       10 * dtdctcp.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   20 * time.Millisecond,
		Warmup:     5 * time.Millisecond,
		Seed:       1,
	}
	flows := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	if quick {
		base.Duration = 5 * time.Millisecond
		base.Warmup = time.Millisecond
		flows = flows[:4]
	}
	workers := runtime.GOMAXPROCS(0)
	ctx := context.Background()

	start := time.Now()
	if _, err := dtdctcp.SweepFlowsParallel(ctx, base, flows, 1); err != nil {
		panic(err)
	}
	serial := time.Since(start)

	start = time.Now()
	if _, err := dtdctcp.SweepFlowsParallel(ctx, base, flows, workers); err != nil {
		panic(err)
	}
	parallel := time.Since(start)

	m := &SweepMetric{
		Points:         len(flows),
		Workers:        workers,
		SerialMillis:   float64(serial.Microseconds()) / 1e3,
		ParallelMillis: float64(parallel.Microseconds()) / 1e3,
	}
	if parallel > 0 {
		m.Speedup = serial.Seconds() / parallel.Seconds()
	}
	cores := workers
	if n := runtime.NumCPU(); n < cores {
		cores = n
	}
	if cores > 0 {
		m.PerCoreEfficiency = m.Speedup / float64(cores)
	}
	return m
}

// measureShardScaling times the identical 4-switch incast testbed run at
// shard counts 1, 2, 4, … up to maxShards. The determinism contract
// makes the comparison clean: every point simulates exactly the same
// packets in exactly the same order, so a differing event count means
// the sharded engine is broken and the function panics rather than
// reporting a number that compares different workloads.
func measureShardScaling(quick bool, maxShards int) *ShardScalingMetric {
	workers, rounds := 32, 4
	if quick {
		workers, rounds = 12, 2
	}
	m := &ShardScalingMetric{
		Workers:    workers,
		Rounds:     rounds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	for shards := 1; shards <= maxShards; shards *= 2 {
		cfg := dtdctcp.DefaultTestbed(dtdctcp.DCTCP(21, 1.0/16), workers)
		cfg.Shards = shards
		start := time.Now()
		res, err := dtdctcp.RunIncast(cfg, rounds)
		wall := time.Since(start)
		if err != nil {
			panic(err)
		}
		p := ShardPoint{
			Shards:     shards,
			Events:     res.Events,
			WallMillis: float64(wall.Microseconds()) / 1e3,
		}
		if wall > 0 {
			p.EventsPerSec = float64(res.Events) / wall.Seconds()
		}
		if len(m.Points) > 0 {
			base := m.Points[0]
			// The serial engine starts rounds 2..N with events on its own
			// wheel; relay mode starts them with barrier tasks, which are
			// not engine events. So the shards=1 point carries exactly
			// rounds−1 extra bookkeeping events, and every sharded point
			// must match its siblings to the event.
			want := base.Events
			if base.Shards == 1 {
				want -= uint64(rounds - 1)
			}
			if p.Events != want {
				panic(fmt.Sprintf("dtbench: sharding changed the run: %d events at shards=%d, want %d",
					p.Events, shards, want))
			}
			if base.EventsPerSec > 0 {
				p.Speedup = p.EventsPerSec / base.EventsPerSec
			}
		} else {
			p.Speedup = 1
		}
		m.Points = append(m.Points, p)
	}
	return m
}

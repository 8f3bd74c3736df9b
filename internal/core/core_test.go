package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/control"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/netsim"
)

func paperDumbbell(p Protocol, flows int) DumbbellConfig {
	return DumbbellConfig{
		Protocol:   p,
		Flows:      flows,
		Rate:       10 * netsim.Gbps,
		RTT:        100 * time.Microsecond,
		BufferPkts: 600,
		Duration:   60 * time.Millisecond,
		Warmup:     15 * time.Millisecond,
		Seed:       1,
	}
}

func TestProtocolPresets(t *testing.T) {
	dc := DCTCP(40, 1.0/16)
	if !strings.Contains(dc.Name, "dctcp") || dc.K != 40 {
		t.Fatalf("DCTCP preset: %+v", dc)
	}
	if dc.PacketSize() != 1500 {
		t.Fatalf("PacketSize = %d", dc.PacketSize())
	}
	if _, ok := dc.DF().(control.DCTCPDF); !ok {
		t.Fatal("DCTCP DF type")
	}
	if _, ok := dc.MarkingLaw().(fluid.SingleThreshold); !ok {
		t.Fatal("DCTCP law type")
	}

	dt := DTDCTCP(30, 50, 1.0/16)
	if dt.K1 != 30 || dt.K2 != 50 {
		t.Fatalf("DTDCTCP preset: %+v", dt)
	}
	if df, ok := dt.DF().(control.DTDCTCPDF); !ok || df.K1 != 30 || df.K2 != 50 {
		t.Fatal("DT DF mapping")
	}
	if law, ok := dt.MarkingLaw().(fluid.DoubleThreshold); !ok || law.K1 != 30 {
		t.Fatal("DT law mapping")
	}

	reno := Reno()
	if reno.DF() != nil || reno.MarkingLaw() != nil || reno.NewPolicy(nil) != nil {
		t.Fatal("Reno should have no marker")
	}
	recn := RenoECN(40)
	if recn.K != 40 || recn.NewPolicy(nil) == nil {
		t.Fatal("RenoECN preset")
	}
}

func TestTriangleTrajectory(t *testing.T) {
	tr := TriangleTrajectory(3)
	want := []int{0, 1, 2, 3, 2, 1, 0}
	if len(tr) != len(want) {
		t.Fatalf("len = %d", len(tr))
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("tr = %v", tr)
		}
	}
	if TriangleTrajectory(0) != nil {
		t.Fatal("peak 0 should be nil")
	}
}

func TestReplayMarkerFig2(t *testing.T) {
	// Fig. 2's comparison: same trajectory through both markers.
	traj := TriangleTrajectory(80)
	dc, err := ReplayMarker(DCTCP(40, 1.0/16), traj)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := ReplayMarker(DTDCTCP(30, 50, 1.0/16), traj)
	if err != nil {
		t.Fatal(err)
	}
	// DCTCP: memoryless at K=40 — marks iff q ≥ 40 on both slopes.
	for i, d := range dc {
		want := d.QueuePkts >= 40
		if d.Marked != want {
			t.Fatalf("DCTCP decision %d: q=%d marked=%v", i, d.QueuePkts, d.Marked)
		}
	}
	// DT-DCTCP: marks from 30 on the rise and down to 50 on the fall.
	firstMark, lastMark := -1, -1
	for i, d := range dt {
		if d.Marked {
			if firstMark < 0 {
				firstMark = i
			}
			lastMark = i
		}
	}
	if dt[firstMark].QueuePkts > 35 {
		t.Fatalf("DT first mark at q=%d, want ≈30 (early start)", dt[firstMark].QueuePkts)
	}
	if lastMark <= 81 { // index 81 is the first falling sample (q=79)
		t.Fatal("DT marking should persist into the fall")
	}
	if q := dt[lastMark].QueuePkts; q < 45 || q > 60 {
		t.Fatalf("DT last mark at q=%d, want ≈50 (early release)", q)
	}
	if _, err := ReplayMarker(Reno(), traj); err == nil {
		t.Fatal("Reno replay should fail")
	}
}

func TestRunDumbbellValidation(t *testing.T) {
	bad := []DumbbellConfig{
		{},
		{Flows: 1, Rate: 1, RTT: 1}, // no buffer/duration
		{Flows: -1, Rate: 1, RTT: 1, BufferPkts: 1, Duration: 1},
		{Flows: 1, Rate: 0, RTT: 1, BufferPkts: 1, Duration: 1},
		{Flows: 1, Rate: 1, RTT: 0, BufferPkts: 1, Duration: 1},
		{Flows: 1, Rate: 1, RTT: 1, BufferPkts: 0, Duration: 1},
	}
	for i, cfg := range bad {
		if _, err := RunDumbbell(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRunDumbbellBasics(t *testing.T) {
	cfg := paperDumbbell(DCTCP(40, 1.0/16), 10)
	cfg.QueueSampleEvery = 100 * time.Microsecond
	cfg.AlphaSampleEvery = time.Millisecond
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != cfg.Protocol.Name || res.Flows != 10 {
		t.Fatal("result echo wrong")
	}
	if res.Utilization < 0.9 || res.Utilization > 1.05 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
	if res.QueueMeanPkts <= 5 || res.QueueMeanPkts >= 80 {
		t.Fatalf("queue mean = %v, want in the neighbourhood of K=40", res.QueueMeanPkts)
	}
	if res.QueueStdPkts <= 0 {
		t.Fatal("queue sd must be positive")
	}
	if res.QueueMaxPkts > 600 {
		t.Fatal("queue exceeded buffer")
	}
	if res.AlphaMean <= 0 || res.AlphaMean >= 1 {
		t.Fatalf("alpha mean = %v", res.AlphaMean)
	}
	if res.Marks == 0 {
		t.Fatal("no marks")
	}
	if res.Drops != 0 {
		t.Fatalf("unexpected drops: %d", res.Drops)
	}
	if res.QueueSeries == nil || res.QueueSeries.Len() == 0 {
		t.Fatal("queue series missing")
	}
	if res.AlphaSeries == nil || res.AlphaSeries.Len() == 0 {
		t.Fatal("alpha series missing")
	}
}

// The paper's headline (Figs. 10–11): DCTCP's queue deviation grows with
// the flow count and DT-DCTCP stays below it.
func TestOscillationGrowsWithFlowsAndDTIsSmaller(t *testing.T) {
	run := func(p Protocol, n int) *DumbbellResult {
		res, err := RunDumbbell(paperDumbbell(p, n))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dc10 := run(DCTCP(40, 1.0/16), 10)
	dc60 := run(DCTCP(40, 1.0/16), 60)
	dt10 := run(DTDCTCP(30, 50, 1.0/16), 10)
	dt60 := run(DTDCTCP(30, 50, 1.0/16), 60)

	if dc60.QueueStdPkts <= dc10.QueueStdPkts {
		t.Fatalf("DCTCP σ should grow with N: N=10 %.1f vs N=60 %.1f",
			dc10.QueueStdPkts, dc60.QueueStdPkts)
	}
	if dt10.QueueStdPkts >= dc10.QueueStdPkts {
		t.Fatalf("DT σ at N=10 (%.1f) should be below DCTCP's (%.1f)",
			dt10.QueueStdPkts, dc10.QueueStdPkts)
	}
	if dt60.QueueStdPkts >= dc60.QueueStdPkts {
		t.Fatalf("DT σ at N=60 (%.1f) should be below DCTCP's (%.1f)",
			dt60.QueueStdPkts, dc60.QueueStdPkts)
	}
}

func TestSweepFlows(t *testing.T) {
	base := paperDumbbell(DCTCP(40, 1.0/16), 0)
	base.Duration = 20 * time.Millisecond
	base.Warmup = 5 * time.Millisecond
	pts, err := SweepFlowsParallel(context.Background(), base, []int{5, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Flows != 5 || pts[1].Flows != 10 {
		t.Fatalf("sweep points: %+v", pts)
	}
	if _, err := SweepFlowsParallel(context.Background(), base, []int{0}, 1); err == nil {
		t.Fatal("invalid sweep accepted")
	}
}

func TestTestbedValidation(t *testing.T) {
	good := DefaultTestbed(DCTCP(21, 1.0/16), 4)
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Workers = 0
	if bad.validate() == nil {
		t.Fatal("workers=0 accepted")
	}
	// A negative deadline was once run as zero.
	bad = good
	bad.Deadline = -time.Millisecond
	if _, err := RunIncast(bad, 2); err == nil || err.Error() != "core: Deadline must not be negative" {
		t.Fatalf("RunIncast = %v, want the negative deadline refused", err)
	}
	if _, err := RunQuery(good, 0, 1); err == nil {
		t.Fatal("bytes=0 accepted")
	}
	if _, err := RunQuery(good, 100, 0); err == nil {
		t.Fatal("rounds=0 accepted")
	}
}

// TestTestbedIsFig13 pins the apparatus the testbed builds: the paper's
// 1 Gbps ports with ≈25 µs per traversal, the protocol's law over 128 KB
// on the core→aggregator port, DropTail over 512 KB everywhere else, and
// workers spread round-robin over three edge switches.
func TestTestbedIsFig13(t *testing.T) {
	p := DTDCTCP(30, 50, 1.0/16)
	tb, err := buildTestbed(DefaultTestbed(p, 5))
	if err != nil {
		t.Fatal(err)
	}
	nw := tb.aggregator.Network()
	ports := 0
	check := func(port *netsim.Port, buffer int, policy aqm.Policy) {
		t.Helper()
		ports++
		if port.Rate() != netsim.Gbps || port.Delay() != 25*time.Microsecond {
			t.Errorf("port to %s: %v and %v, want 1 Gbps and 25µs", port.Peer().Name(), port.Rate(), port.Delay())
		}
		if port.Buffer() != buffer || !reflect.DeepEqual(port.Policy(), policy) {
			t.Errorf("port to %s: %d bytes under %#v, want %d under %#v",
				port.Peer().Name(), port.Buffer(), port.Policy(), buffer, policy)
		}
	}
	for _, sw := range nw.Switches() {
		for i := range sw.Ports() {
			if port := sw.Port(i); port == tb.bneck {
				check(port, 128<<10, p.NewPolicy(nil))
			} else {
				check(port, 512<<10, aqm.NewDropTail())
			}
		}
	}
	for _, h := range nw.Hosts() {
		check(h.Uplink(), 512<<10, aqm.NewDropTail())
	}
	if tb.bneck.Peer() != netsim.Node(tb.aggregator) {
		t.Errorf("bottleneck leads to %s, want the aggregator", tb.bneck.Peer().Name())
	}
	// The core switch has the aggregator and three edges; each edge has
	// the core and its workers.
	if got := len(nw.Switches()); got != 4 || ports != 2*(4+5) {
		t.Errorf("%d switches and %d ports, want 4 and %d", got, ports, 2*(4+5))
	}
	for i, w := range tb.workers {
		if got, want := w.Uplink().Peer().Name(), fmt.Sprintf("switch%d", i%3+2); got != want {
			t.Errorf("worker %d hangs off %s, want %s", i, got, want)
		}
	}
}

func TestIncastBeforeCollapse(t *testing.T) {
	cfg := DefaultTestbed(DCTCP(21, 1.0/16), 8)
	res, err := RunIncast(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 || res.Workers != 8 {
		t.Fatalf("result echo: %+v", res)
	}
	if res.Timeouts != 0 {
		t.Fatalf("timeouts before collapse: %d", res.Timeouts)
	}
	// 8 workers × 64 KB at 1 Gbps: goodput should be near line rate.
	if res.MeanGoodputBps < 0.7e9 {
		t.Fatalf("goodput %v too low before collapse", res.MeanGoodputBps)
	}
	if res.MeanCompletion < 4*time.Millisecond || res.MeanCompletion > 20*time.Millisecond {
		t.Fatalf("completion %v out of range", res.MeanCompletion)
	}
}

// Fig. 14's claim: DT-DCTCP postpones throughput collapse. At a flow count
// where DCTCP has clearly collapsed, anticipatory DT-DCTCP still delivers
// several times its goodput.
func TestIncastCollapsePostponedByDT(t *testing.T) {
	const n = 56
	dc, err := RunIncast(DefaultTestbed(DCTCP(21, 1.0/16), n), 10)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := RunIncast(DefaultTestbed(DTDCTCP(16, 26, 1.0/16), n), 10)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Timeouts == 0 {
		t.Fatal("DCTCP at n=56 should be suffering timeouts")
	}
	if dt.MeanGoodputBps <= dc.MeanGoodputBps {
		t.Fatalf("DT goodput (%v) should exceed DCTCP's (%v) past DCTCP's collapse",
			dt.MeanGoodputBps, dc.MeanGoodputBps)
	}
	if dt.Timeouts >= dc.Timeouts {
		t.Fatalf("DT timeouts (%d) should be below DCTCP's (%d)", dt.Timeouts, dc.Timeouts)
	}
}

func TestCompletionTimeExperiment(t *testing.T) {
	// Fig. 15: 1 MB split n ways; the floor is ≈10 ms (1 MB at 1 Gbps).
	cfg := DefaultTestbed(DCTCP(21, 1.0/16), 8)
	res, err := RunCompletionTime(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCompletion < 8*time.Millisecond {
		t.Fatalf("completion %v below the line-rate floor", res.MeanCompletion)
	}
	if res.MeanCompletion > 30*time.Millisecond {
		t.Fatalf("completion %v far above the floor without timeouts (to=%d)",
			res.MeanCompletion, res.Timeouts)
	}
	if res.P95Completion < res.MeanCompletion/2 {
		t.Fatal("p95 below half the mean is impossible")
	}
	if res.MaxCompletion < res.P95Completion {
		t.Fatal("max below p95")
	}
}

func TestSweepWorkers(t *testing.T) {
	base := DefaultTestbed(DCTCP(21, 1.0/16), 0)
	pts, err := SweepWorkersParallel(context.Background(), base, []int{4, 8}, 2, 1, RunIncast)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Workers != 4 || pts[1].Workers != 8 {
		t.Fatalf("sweep: %+v", pts)
	}
	if _, err := SweepWorkersParallel(context.Background(), base, []int{0}, 2, 1, RunIncast); err == nil {
		t.Fatal("invalid sweep accepted")
	}
}

func TestAnalysisBridges(t *testing.T) {
	params := PaperAnalysisParams()
	dc := DCTCP(40, 1.0/16)
	v, err := AnalyzeStability(dc, params, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Stable {
		t.Fatal("DCTCP at N=10 should be analysis-stable")
	}
	n, err := CriticalFlows(dc, params, 2, 150)
	if err != nil {
		t.Fatal(err)
	}
	nDT, err := CriticalFlows(DTDCTCP(30, 50, 1.0/16), params, 2, 150)
	if err != nil {
		t.Fatal(err)
	}
	if nDT <= n {
		t.Fatalf("DT critical N (%d) must exceed DCTCP's (%d)", nDT, n)
	}
	if _, err := AnalyzeStability(Reno(), params, 10); err == nil {
		t.Fatal("Reno analysis should fail")
	}
	if _, err := CriticalFlows(Reno(), params, 2, 10); err == nil {
		t.Fatal("Reno critical flows should fail")
	}

	fc, err := FluidConfig(dc, params, 20, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fc.N != 20 || fc.RTTRefQueue != 40 || fc.Duration != 0.1 {
		t.Fatalf("fluid config: %+v", fc)
	}
	fcDT, err := FluidConfig(DTDCTCP(30, 50, 1.0/16), params, 20, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fcDT.RTTRefQueue != 40 { // (30+50)/2
		t.Fatalf("DT ref queue = %v", fcDT.RTTRefQueue)
	}
	if _, err := FluidConfig(Reno(), params, 20, time.Second); err == nil {
		t.Fatal("Reno fluid config should fail")
	}
}

// TestAnalysesRefuseGain: g ≤ 0 once ran the fluid model with senders
// that ignore ECN, and g > 1 reached the describing-function analysis as
// an invalid plant with no word about g. Every analysis entry point
// refuses g outside (0, 1], NaN included, with the same reason as the
// packet runners, and accepts g = 1.
func TestAnalysesRefuseGain(t *testing.T) {
	dc := DCTCP(40, 1.0/16)
	entries := map[string]func(AnalysisParams) error{
		"AnalyzeStability": func(a AnalysisParams) error { _, err := AnalyzeStability(dc, a, 10); return err },
		"CriticalFlows":    func(a AnalysisParams) error { _, err := CriticalFlows(dc, a, 2, 20); return err },
		"StabilityMargins": func(a AnalysisParams) error { _, err := StabilityMargins(dc, a, 10); return err },
		"FluidConfig":      func(a AnalysisParams) error { _, err := FluidConfig(dc, a, 10, time.Millisecond); return err },
	}
	for name, call := range entries {
		for _, g := range []float64{0, -1, 1.5, 2, math.NaN(), math.Inf(1)} {
			params := PaperAnalysisParams()
			params.G = g
			err := call(params)
			if err == nil || !strings.Contains(err.Error(), "core: G = ") || !strings.Contains(err.Error(), "must be in (0, 1]") {
				t.Errorf("%s at g = %v: err = %v, want the core: G refusal", name, g, err)
			}
		}
		params := PaperAnalysisParams()
		params.G = 1
		if err := call(params); err != nil {
			t.Errorf("%s at g = 1: %v", name, err)
		}
	}
}

func TestDumbbellFairness(t *testing.T) {
	res, err := RunDumbbell(paperDumbbell(DCTCP(40, 1.0/16), 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFlowAcked) != 8 {
		t.Fatalf("PerFlowAcked has %d entries", len(res.PerFlowAcked))
	}
	// DCTCP's fairness is one of its design goals; 8 identical flows over
	// 75 ms must share closely.
	if res.Fairness < 0.9 {
		t.Fatalf("Jain fairness = %.3f, want ≥ 0.9", res.Fairness)
	}
}

func TestDeadlineAccounting(t *testing.T) {
	// Loose deadline: nothing missed; impossible deadline: everything
	// missed. Pins the miss-rate bookkeeping end to end.
	loose := DefaultTestbed(D2TCPProto(21, 1.0/16), 4)
	loose.Deadline = 10 * time.Second
	res, err := RunIncast(loose, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedDeadlines != 0 || res.DeadlineMissRate != 0 {
		t.Fatalf("loose deadline missed %d (rate %v)", res.MissedDeadlines, res.DeadlineMissRate)
	}
	tight := DefaultTestbed(D2TCPProto(21, 1.0/16), 4)
	tight.Deadline = time.Microsecond
	res, err = RunIncast(tight, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedDeadlines != 3*4 || res.DeadlineMissRate != 1 {
		t.Fatalf("impossible deadline missed %d of 12 (rate %v)", res.MissedDeadlines, res.DeadlineMissRate)
	}
	// No deadline configured: rate stays zero.
	plain := DefaultTestbed(DCTCP(21, 1.0/16), 4)
	res, err = RunIncast(plain, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissedDeadlines != 0 || res.DeadlineMissRate != 0 {
		t.Fatal("deadline accounting active without a deadline")
	}
}

func TestD2TCPPreset(t *testing.T) {
	p := D2TCPProto(21, 1.0/16)
	if p.K != 21 || p.NewPolicy(nil) == nil {
		t.Fatalf("preset: %+v", p)
	}
	if p.DF() == nil || p.MarkingLaw() == nil {
		t.Fatal("D2TCP uses DCTCP's marker: analyses must map")
	}
}

func TestRenoPIEHoldsDelayTarget(t *testing.T) {
	// PIE targeting 200 µs of queueing at 10 Gbps ≈ 167 packets: the
	// mean queue must land well below the Reno/DropTail level (≈480
	// pkts riding the 600-pkt buffer) and near the target.
	p := RenoPIE(10*netsim.Gbps, 200*time.Microsecond)
	cfg := paperDumbbell(p, 20)
	cfg.Duration = 100 * time.Millisecond
	cfg.Warmup = 30 * time.Millisecond
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueMeanPkts > 250 || res.QueueMeanPkts < 50 {
		t.Fatalf("PIE mean queue %.1f pkts, want near the 167-packet target", res.QueueMeanPkts)
	}
	if res.Marks == 0 {
		t.Fatal("PIE produced no ECN marks")
	}
	if res.Utilization < 0.7 {
		t.Fatalf("PIE utilization %.2f too low", res.Utilization)
	}
}

func TestRenoCoDelBoundsSojourn(t *testing.T) {
	p := RenoCoDel(200*time.Microsecond, time.Millisecond)
	cfg := paperDumbbell(p, 20)
	cfg.Duration = 100 * time.Millisecond
	cfg.Warmup = 30 * time.Millisecond
	res, err := RunDumbbell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 200 µs of sojourn at 10 Gbps ≈ 167 packets; CoDel should keep the
	// mean well under the DropTail level (≈480).
	if res.QueueMeanPkts > 300 {
		t.Fatalf("CoDel mean queue %.1f pkts: not controlling", res.QueueMeanPkts)
	}
	if res.Marks == 0 {
		t.Fatal("CoDel-ECN produced no marks")
	}
	if res.Utilization < 0.8 {
		t.Fatalf("utilization %.2f", res.Utilization)
	}
}

func TestCubicProtoDumbbell(t *testing.T) {
	res, err := RunDumbbell(paperDumbbell(CubicProto(), 10))
	if err != nil {
		t.Fatal(err)
	}
	// Loss-driven CUBIC rides the buffer like Reno: high mean queue,
	// full utilization.
	if res.QueueMeanPkts < 100 {
		t.Fatalf("CUBIC mean queue %.1f pkts: expected buffer-filling behaviour", res.QueueMeanPkts)
	}
	if res.Utilization < 0.9 {
		t.Fatalf("utilization %.2f", res.Utilization)
	}
}

func TestBuildupShortFlowsFasterUnderDCTCP(t *testing.T) {
	run := func(p Protocol) *BuildupResult {
		res, err := RunBuildup(p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reno := run(Reno())
	dctcp := run(DCTCP(40, 1.0/16))
	dt := run(DTDCTCP(30, 50, 1.0/16))
	if reno.ShortTransfers == 0 || dctcp.ShortTransfers == 0 {
		t.Fatal("no short transfers completed")
	}
	// The DCTCP paper's point: the standing DropTail queue inflates
	// short-flow latency; DCTCP's shallow queue removes it.
	if dctcp.MeanFCT >= reno.MeanFCT {
		t.Fatalf("short-flow FCT: dctcp %v vs reno %v, want dctcp faster", dctcp.MeanFCT, reno.MeanFCT)
	}
	if dctcp.QueueMeanPkts >= reno.QueueMeanPkts {
		t.Fatalf("queue: dctcp %.1f vs reno %.1f", dctcp.QueueMeanPkts, reno.QueueMeanPkts)
	}
	// DT-DCTCP must not regress the short flows relative to Reno either.
	if dt.MeanFCT >= reno.MeanFCT {
		t.Fatalf("short-flow FCT: dt %v vs reno %v", dt.MeanFCT, reno.MeanFCT)
	}
}

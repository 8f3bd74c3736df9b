package conform

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"dtdctcp/internal/core"
)

// Protocol & switch zoo conformance: the repo's rival mechanisms — the
// DCTCP+ slow-timer sender, HULL's phantom-queue marker, and the
// shared-buffer dynamic-threshold switch — each come with a claim that
// can drift silently: DCTCP+ must tame incast without giving up the
// transfer, the phantom queue must pin utilization at γ while holding the
// real queue near empty, and the shared-buffer switch must degenerate
// exactly to per-port tail-drop in the uncontended single-port limit.
// This grid turns each claim into a scenario with declared tolerances;
// checks whose inputs a regime does not produce are skipped with the
// reason, and the anti-vacuity test in conform_test.go asserts every
// scenario still applies at least two real checks.

// zooTol holds the agreement bands every zoo point is checked against.
var zooTol = struct {
	// CompletionRatioLo/Hi bound candidate mean incast completion /
	// rival mean incast completion (incast family).
	CompletionRatioLo, CompletionRatioHi float64
	// GoodputRatioLo/Hi bound candidate mean goodput / rival mean
	// goodput (incast family).
	GoodputRatioLo, GoodputRatioHi float64
	// PlusBaseRatioLo/Hi bound DCTCP+ mean completion / DCTCP baseline
	// mean completion: the slow timer must track the baseline it
	// augments, in and out of collapse (incast family).
	PlusBaseRatioLo, PlusBaseRatioHi float64
	// ReliefRatioMax bounds DT-DCTCP mean completion / DCTCP baseline
	// mean completion in the collapse regime — the marking-side fix must
	// measurably ease the collapse (incast family).
	ReliefRatioMax float64
	// UtilizationAbs bounds |utilization − γ| for phantom scenarios
	// with γ < 1, and the shortfall below full utilization elsewhere.
	UtilizationAbs float64
	// RealQueueFrac bounds the phantom run's real queue mean as a
	// fraction of the marking threshold K (the HULL headroom claim).
	RealQueueFrac float64
	// QueueMeanRatioLo/Hi bound pooled/phantom queue mean against a
	// reference run's.
	QueueMeanRatioLo, QueueMeanRatioHi float64
	// QueueCapSlackPkts is the allowance above the dynamic-threshold
	// fixed point αB/(1+α) the pooled queue max may reach (in-flight
	// rounding, one packet in serialization).
	QueueCapSlackPkts float64
}{
	CompletionRatioLo: 0.05,
	CompletionRatioHi: 3.0,
	GoodputRatioLo:    0.05,
	GoodputRatioHi:    1.5,
	PlusBaseRatioLo:   0.5,
	PlusBaseRatioHi:   1.3,
	ReliefRatioMax:    0.75,
	UtilizationAbs:    0.10,
	RealQueueFrac:     1.0,
	QueueMeanRatioLo:  0.3,
	QueueMeanRatioHi:  3.0,
	QueueCapSlackPkts: 4,
}

const (
	// zooG is the grid's EWMA gain, the paper's 1/16.
	zooG = 1.0 / 16
	// zooK is the marking threshold of the dumbbell families.
	zooK = 40
)

// zooDumbbell is the dumbbell families' bottleneck: the paper's Section
// VI-A setup, shortened to keep the grid affordable.
func zooDumbbell(flows int) dumbbell {
	return paperDumbbell(flows, 10*time.Millisecond, 30*time.Millisecond)
}

// zooGrid returns the zoo conformance grid: DCTCP+ against DT-DCTCP on
// two incast fan-ins, the phantom queue across γ, and the shared-buffer
// switch in its exact single-port limit and two sharing regimes.
func zooGrid() []Point {
	var out []Point
	// Incast family: below and at the paper's collapse region.
	for _, w := range []int{16, 32} {
		out = append(out, Point{fmt.Sprintf("zoo-plus-vs-dt-incast-w%d", w),
			func() (Report, error) { return runZooIncast(w, w >= 32) }})
	}
	// Phantom family: HULL's γ sweep plus the γ = 1 fluid edge.
	for _, gamma := range []float64{0.80, 0.95, 1.0} {
		out = append(out, Point{fmt.Sprintf("zoo-hull-g%02.0f-n20", gamma*100),
			func() (Report, error) { return runZooPhantom(gamma) }})
	}
	// Shared-buffer family: the exact uncontended limit, then sharing at
	// a conservative and a liberal α.
	out = append(out, Point{"zoo-sharedbuf-single-port-limit",
		func() (Report, error) { return runZooSharedBuffer(1e12, true) }})
	for _, alpha := range []float64{1, 8} {
		out = append(out, Point{fmt.Sprintf("zoo-sharedbuf-a%.0f-n40", alpha),
			func() (Report, error) { return runZooSharedBuffer(alpha, false) }})
	}
	return out
}

// runZooIncast compares DCTCP+ against DT-DCTCP and the DCTCP baseline on
// the paper's testbed incast (Fig. 14 shape, three rounds): the
// slow-timer sender must not collapse harder than plain DCTCP, and must
// stay on the same completion/goodput scale as the marking-side fix.
// collapse declares which regime the fan-in sits in: below the cliff the
// checks demand a loss-free incast, above it they demand the collapse
// actually happens and DT-DCTCP relieves it.
func runZooIncast(workers int, collapse bool) (Report, error) {
	run := func(p core.Protocol) (*core.QueryResult, error) {
		cfg := core.DefaultTestbed(p, workers)
		cfg.Seed = 1
		return core.RunIncast(cfg, 3)
	}
	plus, err := run(core.DCTCPPlus(20, zooG))
	if err != nil {
		return Report{}, fmt.Errorf("dctcp+: %w", err)
	}
	dt, err := run(core.DTDCTCP(16, 26, zooG))
	if err != nil {
		return Report{}, fmt.Errorf("dt-dctcp: %w", err)
	}
	base, err := run(core.DCTCP(20, zooG))
	if err != nil {
		return Report{}, fmt.Errorf("dctcp baseline: %w", err)
	}
	plusC, dtC, baseC := plus.MeanCompletion.Seconds(), dt.MeanCompletion.Seconds(), base.MeanCompletion.Seconds()
	noBase := skipIf(base.MeanCompletion <= 0, "baseline run recorded no completions")

	// The declared regime must actually hold — this is the family's
	// anti-vacuity: a collapse scenario that never drops proves nothing,
	// and a pre-collapse scenario that drops is mislabeled.
	drops := fmt.Sprintf("%d drops = 0 (below the cliff ECN absorbs the burst without loss)", base.Drops)
	if collapse {
		drops = fmt.Sprintf("%d drops > 0 (the incast must actually overflow the bottleneck)", base.Drops)
	}
	return Report{Checks: []Check{
		ratio("completion-mean/plus-vs-dt", plusC, dtC, zooTol.CompletionRatioLo, zooTol.CompletionRatioHi,
			skipIf(dt.MeanCompletion <= 0, "rival run recorded no completions")),
		ratio("goodput-mean/plus-vs-dt", plus.MeanGoodputBps, dt.MeanGoodputBps, zooTol.GoodputRatioLo, zooTol.GoodputRatioHi,
			skipIf(dt.MeanGoodputBps <= 0, "rival run recorded no goodput")),
		// The slow timer augments DCTCP; in every regime its completions
		// must track the baseline it grew out of.
		ratio("completion-mean/plus-vs-dctcp", plusC, baseC, zooTol.PlusBaseRatioLo, zooTol.PlusBaseRatioHi, noBase),
		// Below the cliff the pacer must not manufacture timeouts the
		// baseline never saw; once the baseline itself collapses the
		// timeout-free claim has no referent and is skipped.
		holds("timeouts/plus-below-cliff", float64(plus.Timeouts), float64(base.Timeouts), plus.Timeouts == 0,
			fmt.Sprintf("%d RTOs (the pacer must not introduce timeouts below the cliff)", plus.Timeouts),
			skipIf(base.Timeouts > 0, "baseline fired %d RTOs: the fan-in is past the cliff", base.Timeouts)),
		// In the collapse regime, the marking-side fix must measurably
		// ease the collapse the baseline suffers.
		holds("completion-mean/dt-vs-dctcp", dtC, baseC, dtC/baseC <= zooTol.ReliefRatioMax,
			fmt.Sprintf("ratio %.2f ≤ %.2f (DT-DCTCP must ease the collapse)", dtC/baseC, zooTol.ReliefRatioMax),
			cmp.Or(skipIf(!collapse, "below the cliff there is no collapse to relieve"), noBase)),
		holds("drops/dctcp-baseline", float64(base.Drops), 0, (base.Drops > 0) == collapse, drops, ""),
	}}, nil
}

// runZooPhantom checks HULL's analytic virtual-queue prediction: a
// phantom queue draining at γ·C pins utilization at γ, and with γ < 1 it
// marks early enough that the real queue's mean stays under the threshold
// the virtual queue trips at.
func runZooPhantom(gamma float64) (Report, error) {
	d := zooDumbbell(20)
	res, err := core.RunDumbbell(d.config(core.HULL(zooK, gamma, d.Rate, zooG)))
	if err != nil {
		return Report{}, fmt.Errorf("hull: %w", err)
	}
	ref, err := core.RunDumbbell(d.config(core.DCTCP(zooK, zooG)))
	if err != nil {
		return Report{}, fmt.Errorf("dctcp reference: %w", err)
	}

	// Against the DCTCP reference at the same K: a γ<1 phantom must hold
	// a shorter real queue; at γ=1 the two markers see near-identical
	// occupancies and the means must sit on the same scale.
	vsDCTCP := ratio("queue-mean/hull-vs-dctcp", res.QueueMeanPkts, ref.QueueMeanPkts,
		zooTol.QueueMeanRatioLo, zooTol.QueueMeanRatioHi, tooSmall("reference queue mean", ref.QueueMeanPkts, 1))
	if gamma < 1 && vsDCTCP.Skipped == "" {
		vsDCTCP = holds(vsDCTCP.Name, vsDCTCP.Got, vsDCTCP.Ref, res.QueueMeanPkts < ref.QueueMeanPkts,
			fmt.Sprintf("phantom mean %.1f < reference %.1f (early marking shortens the real queue)",
				res.QueueMeanPkts, ref.QueueMeanPkts), "")
	}
	diff := math.Abs(res.Utilization - gamma)
	bound := zooTol.RealQueueFrac * zooK
	return Report{Checks: []Check{
		// The virtual queue saturates exactly when the arrival rate
		// crosses γ·C, so steady-state utilization must sit at γ (full
		// rate at γ=1).
		holds("utilization/sim-vs-virtual-queue-prediction", res.Utilization, gamma, diff <= zooTol.UtilizationAbs,
			fmt.Sprintf("|util − γ| = %.3f ≤ %.3f", diff, zooTol.UtilizationAbs), ""),
		// Real-queue headroom: marking against the slower virtual drain
		// keeps the real buffer under the threshold.
		holds("queue-mean/real-vs-threshold", res.QueueMeanPkts, zooK, res.QueueMeanPkts <= bound,
			fmt.Sprintf("real mean %.1f pkts ≤ %.2f·K = %.1f", res.QueueMeanPkts, zooTol.RealQueueFrac, bound),
			skipIf(gamma >= 1, "γ = 1: the phantom queue tracks the real queue, no headroom claim to test")),
		vsDCTCP,
		holds("stress/phantom-marks", float64(res.Marks), 0, res.Marks > 0,
			"the phantom queue must actually mark (anti-vacuity)", ""),
	}}, nil
}

// runZooSharedBuffer checks the shared-buffer switch at allowance alpha
// against the private-buffer reference. In the single-port limit (the
// pool on the bottleneck only) the pooled run must be indistinguishable —
// same events, same marks, same drops, same queue trace hash. Under a
// whole-switch pool the dynamic allowance caps the bottleneck at the
// fixed point αB/(1+α) while utilization holds.
func runZooSharedBuffer(alpha float64, singlePort bool) (Report, error) {
	d := zooDumbbell(40)
	p := core.DCTCP(zooK, zooG)
	pooled := d.config(p)
	pooled.SharedBuffer = core.SharedBufferConfig{Alpha: alpha, BottleneckOnly: singlePort}
	pres, err := core.RunDumbbell(pooled)
	if err != nil {
		return Report{}, fmt.Errorf("pooled: %w", err)
	}
	rres, err := core.RunDumbbell(d.config(p))
	if err != nil {
		return Report{}, fmt.Errorf("private reference: %w", err)
	}

	var checks []Check
	if singlePort {
		// Verdict-exact equivalence: every counter and the queue trace
		// must match bit for bit.
		var ph, rh uint64
		noSeries := "a run produced no queue series"
		if pres.QueueSeries != nil && rres.QueueSeries != nil {
			ph, rh, noSeries = pres.QueueSeries.Hash64(), rres.QueueSeries.Hash64(), ""
		}
		checks = []Check{
			exact("events/pooled-vs-private", float64(pres.Events), float64(rres.Events),
				pres.Events, rres.Events, "%d vs %d", ""),
			holds("marks-drops/pooled-vs-private", float64(pres.Marks), float64(rres.Marks),
				pres.Marks == rres.Marks && pres.Drops == rres.Drops && pres.Timeouts == rres.Timeouts,
				fmt.Sprintf("marks %d/%d drops %d/%d timeouts %d/%d (exact)",
					pres.Marks, rres.Marks, pres.Drops, rres.Drops, pres.Timeouts, rres.Timeouts), ""),
			exact("queue-trace/pooled-vs-private", pres.QueueMeanPkts, rres.QueueMeanPkts,
				ph, rh, "series hash %016x vs %016x", noSeries),
		}
	} else {
		// Dynamic-threshold cap: with only the bottleneck congested the
		// allowance fixed point is q* = αB/(1+α).
		fixed := alpha * float64(d.BufferPkts) / (1 + alpha)
		slack := zooTol.QueueCapSlackPkts
		checks = []Check{
			holds("queue-max/sim-vs-dt-fixed-point", pres.QueueMaxPkts, fixed, pres.QueueMaxPkts <= fixed+slack,
				fmt.Sprintf("max %.1f pkts ≤ αB/(1+α) + %.0f = %.1f", pres.QueueMaxPkts, slack, fixed+slack), ""),
			holds("utilization/pooled", pres.Utilization, 1, pres.Utilization >= 1-zooTol.UtilizationAbs,
				fmt.Sprintf("utilization %.3f ≥ 1 − %.2f (the cap must not starve the link)",
					pres.Utilization, zooTol.UtilizationAbs), ""),
			ratio("queue-mean/pooled-vs-private", pres.QueueMeanPkts, rres.QueueMeanPkts,
				zooTol.QueueMeanRatioLo, zooTol.QueueMeanRatioHi,
				tooSmall("reference queue mean", rres.QueueMeanPkts, 1)),
		}
	}
	return Report{Checks: append(checks, holds("stress/pooled-marks", float64(pres.Marks), 0, pres.Marks > 0,
		"the pooled bottleneck must actually mark (anti-vacuity)", ""))}, nil
}

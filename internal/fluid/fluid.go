// Package fluid implements the DCTCP fluid model the paper's analysis is
// built on (Eqs. 1–3, from Alizadeh et al., SIGMETRICS'11):
//
//	dW/dt = 1/R − W·α/(2R) · p(t−R₀)
//	dα/dt = (g/R) · (p(t−R₀) − α)
//	dq/dt = N·W/R − C
//
// with p the marking law evaluated on the delayed queue state. The
// single-threshold law p = 𝟙{q > K} models DCTCP; the double-threshold law
// marks above K1 while the queue grows and above K2 while it falls,
// modelling DT-DCTCP (see internal/aqm for the packet-level equivalent).
//
// The delay differential system is integrated by the method of steps with
// a fixed-step RK4 and linear interpolation into the solution history.
package fluid

import (
	"fmt"
	"math"

	"dtdctcp/internal/stats"
)

// MarkingLaw maps the (delayed) queue state to a marking probability.
type MarkingLaw interface {
	// Name identifies the law in output.
	Name() string
	// P returns the marking probability given the queue length q
	// (packets) and its derivative qdot (packets/sec).
	P(q, qdot float64) float64
}

// SingleThreshold is DCTCP's relay law: p = 𝟙{q > K}.
type SingleThreshold struct {
	// K is the threshold in packets.
	K float64
}

// Name implements MarkingLaw.
func (SingleThreshold) Name() string { return "dctcp-single" }

// P implements MarkingLaw.
func (l SingleThreshold) P(q, _ float64) float64 {
	if q > l.K {
		return 1
	}
	return 0
}

// DoubleThreshold is DT-DCTCP's law: threshold K1 while the queue rises,
// K2 while it falls — the hysteresis loop of the paper's Fig. 8.
type DoubleThreshold struct {
	// K1 is the rising-edge threshold in packets.
	K1 float64
	// K2 is the falling-edge threshold in packets.
	K2 float64
}

// Name implements MarkingLaw.
func (DoubleThreshold) Name() string { return "dt-dctcp" }

// P implements MarkingLaw.
func (l DoubleThreshold) P(q, qdot float64) float64 {
	thr := l.K2
	if qdot > 0 {
		thr = l.K1
	}
	if q > thr {
		return 1
	}
	return 0
}

// Config parameterizes one fluid-model integration.
type Config struct {
	// N is the number of flows.
	N float64
	// C is the bottleneck capacity in packets/second.
	C float64
	// D is the propagation (zero-queue) round-trip time in seconds.
	D float64
	// G is DCTCP's α gain.
	G float64
	// Law is the marking law (DCTCP or DT-DCTCP).
	Law MarkingLaw
	// RTTRefQueue is the queue value (packets) defining R₀ (the paper
	// uses K). Also the delay of the marking feedback.
	RTTRefQueue float64
	// Duration is the integration horizon in seconds.
	Duration float64
	// Step is the RK4 step in seconds; zero selects R₀/50. Every
	// integration starts cold, at W = 1, α = 0, q = 0, and Solve samples
	// its output series once per sampleSteps steps.
	Step float64
	// BufferLimit, when positive, caps q (packets) like a finite buffer.
	BufferLimit float64
}

// R0 returns the reference RTT R₀ = D + RTTRefQueue/C.
func (c Config) R0() float64 { return c.D + c.RTTRefQueue/c.C }

// OperatingPoint returns the analytic equilibrium of the model
// (Section V-A): W₀ = R₀C/N and α₀ = p₀ = √(2/W₀).
func (c Config) OperatingPoint() (w0, alpha0 float64) {
	w0 = c.R0() * c.C / c.N
	alpha0 = math.Sqrt(2 / w0)
	return w0, alpha0
}

// Result is the sampled trajectory of one integration.
type Result struct {
	// Queue, Window and Alpha are the sampled state trajectories.
	Queue, Window, Alpha *stats.Series
	// QueueMean and QueueStdDev summarize the second half of the run
	// (the quasi-steady state).
	QueueMean, QueueStdDev float64
	// QueueAmplitude is (max−min)/2 of the queue over the second half:
	// the oscillation amplitude the describing-function analysis
	// predicts.
	QueueAmplitude float64
	// OscPeriod is the dominant oscillation period (seconds) of the
	// queue over the second half, estimated by autocorrelation exactly
	// like the packet simulator's DumbbellResult.OscPeriod, so the two
	// machineries are directly comparable; zero when no credible
	// periodicity was found. OscConfidence is the normalized
	// autocorrelation at that lag.
	OscPeriod     float64
	OscConfidence float64
}

// sampleSteps is Solve's output decimation: one sample per ten steps.
const sampleSteps = 10

// Solve integrates the model and samples the trajectory. It is a
// one-shot driver over Stepper, which holds the numerics; incremental
// integrations (the hybrid co-simulation) drive a Stepper directly.
func Solve(cfg Config) (*Result, error) {
	if !(cfg.Duration > 0) || math.IsInf(cfg.Duration, 1) {
		return nil, fmt.Errorf("fluid: Duration = %g must be positive and finite", cfg.Duration)
	}
	stp, err := NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	h := stp.StepSize()
	sampleEvery := sampleSteps * h
	steps := int(cfg.Duration/h) + 1

	res := &Result{
		Queue:  stats.NewSeries("q"),
		Window: stats.NewSeries("W"),
		Alpha:  stats.NewSeries("alpha"),
	}

	half := cfg.Duration / 2
	var tail stats.Welford
	tailMin, tailMax := math.Inf(1), math.Inf(-1)
	nextSample := 0.0

	for step := 0; step < steps; step++ {
		t := float64(step) * h
		if t >= nextSample {
			nextSample += sampleEvery
			res.Queue.Add(t, stp.q)
			res.Window.Add(t, stp.w)
			res.Alpha.Add(t, stp.alpha)
		}
		if t >= half {
			tail.Add(stp.q)
			if stp.q < tailMin {
				tailMin = stp.q
			}
			if stp.q > tailMax {
				tailMax = stp.q
			}
		}
		stp.Step()
	}

	res.QueueMean = tail.Mean()
	res.QueueStdDev = tail.StdDev()
	if tail.Count() > 0 {
		res.QueueAmplitude = (tailMax - tailMin) / 2
	}
	res.OscPeriod, res.OscConfidence = stats.EstimatePeriod(res.Queue.After(half))
	return res, nil
}

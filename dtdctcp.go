// Package dtdctcp is a from-scratch reproduction of "Ease the Queue
// Oscillation: Analysis and Enhancement of DCTCP" (Chen, Cheng, Ren, Shu,
// Lin — ICDCS 2013): the DT-DCTCP double-threshold ECN marking law, a
// DCTCP/TCP endpoint stack, a deterministic packet-level network
// simulator standing in for ns-2, the paper's NetFPGA testbed expressed
// as a simulator scenario, the DCTCP fluid model, and the
// describing-function stability analysis of Sections IV–V.
//
// This package is the public API: protocol presets, the experiment
// scenarios behind every figure in the paper, and the two analysis
// bridges (Nyquist/describing function and fluid model). The
// implementation lives in internal/ packages; everything a downstream
// user needs is re-exported here.
//
// # Quick start
//
//	res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
//		Protocol:   dtdctcp.DTDCTCP(30, 50, 1.0/16),
//		Flows:      40,
//		Rate:       10 * dtdctcp.Gbps,
//		RTT:        100 * time.Microsecond,
//		BufferPkts: 600,
//		Duration:   100 * time.Millisecond,
//		Warmup:     20 * time.Millisecond,
//	})
//
// See the examples/ directory for runnable programs.
package dtdctcp

import (
	"context"
	"io"
	"time"

	"dtdctcp/internal/control"
	"dtdctcp/internal/core"
	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/netsim"
)

// Rate is a link speed in bits per second.
type Rate = netsim.Rate

// Common link speeds.
const (
	Kbps = netsim.Kbps
	Mbps = netsim.Mbps
	Gbps = netsim.Gbps
)

// Protocol bundles one congestion-control configuration: endpoint
// transport settings plus the switch queue law.
type Protocol = core.Protocol

// DCTCP returns the paper's baseline protocol: DCTCP endpoints with a
// single-threshold ECN marker at kPackets packets and estimation gain g
// (the paper uses K = 40, g = 1/16).
func DCTCP(kPackets int, g float64) Protocol { return core.DCTCP(kPackets, g) }

// DTDCTCP returns the paper's contribution: DCTCP endpoints with the
// double-threshold marker. Marking starts when the queue crosses k1
// upward and stops when it crosses k2 downward; the paper's simulations
// use k1 = 30 < k2 = 50 (mark early on the rise, release early on the
// fall), its testbed the inverted order (classic hysteresis).
func DTDCTCP(k1, k2 int, g float64) Protocol { return core.DTDCTCP(k1, k2, g) }

// DCTCPPlus returns the sender-side enhancement the paper contrasts with
// its switch-side fix: DCTCP endpoints running the DCTCP+ slow-timer
// state machine (DCTCP_NORMAL → TIME_INC → TIME_DES) with randomized
// send pacing under persistent congestion at the window floor, over the
// single-threshold marker at kPackets.
func DCTCPPlus(kPackets int, g float64) Protocol { return core.DCTCPPlus(kPackets, g) }

// HULL returns DCTCP endpoints over a HULL-style phantom queue: a
// virtual queue drained at fraction gamma of the given line rate, marking
// against the virtual occupancy so the real queue keeps headroom.
func HULL(kPackets int, gamma float64, rate Rate, g float64) Protocol {
	return core.HULL(kPackets, gamma, rate, g)
}

// SharedBufferConfig replaces a scenario switch's static per-port
// buffers with one dynamic-threshold pool (Choudhury–Hahne): a port may
// queue at most α × (free pool) bytes. Enabled when Alpha > 0.
type SharedBufferConfig = core.SharedBufferConfig

// Reno returns plain loss-driven NewReno over DropTail.
func Reno() Protocol { return core.Reno() }

// RenoECN returns NewReno with the classic RFC3168 ECN response over a
// single-threshold marker.
func RenoECN(kPackets int) Protocol { return core.RenoECN(kPackets) }

// DumbbellConfig is the long-lived-flows scenario of the paper's
// Section VI-A simulations (Figs. 1 and 10–12).
type DumbbellConfig = core.DumbbellConfig

// DumbbellResult aggregates one dumbbell run.
type DumbbellResult = core.DumbbellResult

// FlowSweepPoint is one sample of a flow-count sweep.
type FlowSweepPoint = core.FlowSweepPoint

// RunDumbbell executes the long-lived-flows scenario.
func RunDumbbell(cfg DumbbellConfig) (*DumbbellResult, error) { return core.RunDumbbell(cfg) }

// SweepFlowsParallel runs the dumbbell at each flow count, as in
// Figs. 10–12, on up to workers goroutines (values < 1 mean GOMAXPROCS).
// Every point owns a private engine seeded by base.Seed alone, so the
// output is byte-identical for any worker count and is returned in the
// order of flows.
func SweepFlowsParallel(ctx context.Context, base DumbbellConfig, flows []int, workers int) ([]FlowSweepPoint, error) {
	return core.SweepFlowsParallel(ctx, base, flows, workers)
}

// HybridConfig describes a hybrid fluid/packet co-simulation: fluid
// background flows against packet-level foreground traffic, or the same
// scenario fully packet-level for reference.
type HybridConfig = core.HybridConfig

// HybridResult aggregates one hybrid (or reference) run.
type HybridResult = core.HybridResult

// RunHybrid executes a hybrid co-simulation scenario.
func RunHybrid(cfg HybridConfig) (*HybridResult, error) { return core.RunHybrid(cfg) }

// TestbedConfig describes the paper's four-switch NetFPGA testbed
// (Fig. 13) as a simulator scenario.
type TestbedConfig = core.TestbedConfig

// QueryResult aggregates a synchronized query experiment.
type QueryResult = core.QueryResult

// WorkerSweepPoint is one sample of a worker-count sweep.
type WorkerSweepPoint = core.WorkerSweepPoint

// DefaultTestbed returns the paper's testbed parameters for a protocol:
// 1 Gbps ports, 128 KB bottleneck buffer, 512 KB elsewhere, ≈100 µs RTT.
func DefaultTestbed(p Protocol, workers int) TestbedConfig {
	return core.DefaultTestbed(p, workers)
}

// RunQuery executes repeated synchronized queries: every worker sends
// bytesPerWorker to the aggregator simultaneously each round.
func RunQuery(cfg TestbedConfig, bytesPerWorker int64, rounds int) (*QueryResult, error) {
	return core.RunQuery(cfg, bytesPerWorker, rounds)
}

// RunIncast is the paper's Fig. 14 experiment: 64 KB per worker.
func RunIncast(cfg TestbedConfig, rounds int) (*QueryResult, error) {
	return core.RunIncast(cfg, rounds)
}

// RunCompletionTime is the paper's Fig. 15 experiment: 1 MB split evenly
// across the workers.
func RunCompletionTime(cfg TestbedConfig, rounds int) (*QueryResult, error) {
	return core.RunCompletionTime(cfg, rounds)
}

// SweepWorkersParallel repeats a query experiment across worker counts,
// as in Figs. 14–15, on up to par goroutines, with the same determinism
// guarantee as SweepFlowsParallel: each point owns a private engine, so
// results do not depend on par.
func SweepWorkersParallel(ctx context.Context, base TestbedConfig, workers []int, rounds, par int,
	run func(TestbedConfig, int) (*QueryResult, error)) ([]WorkerSweepPoint, error) {
	return core.SweepWorkersParallel(ctx, base, workers, rounds, par, run)
}

// AnalysisParams carries the network parameters of the stability and
// fluid analyses.
type AnalysisParams = core.AnalysisParams

// StabilityVerdict is the outcome of the describing-function criterion.
type StabilityVerdict = control.Verdict

// LimitCycle is a predicted self-oscillation (amplitude and frequency).
type LimitCycle = control.LimitCycle

// PaperAnalysisParams returns the parameter set of the paper's Fig. 9.
func PaperAnalysisParams() AnalysisParams { return core.PaperAnalysisParams() }

// AnalyzeStability applies Theorems 1/2 to the protocol's marker at the
// given flow count: it reports stability or the predicted limit cycle.
func AnalyzeStability(p Protocol, params AnalysisParams, flows int) (StabilityVerdict, error) {
	return core.AnalyzeStability(p, params, flows)
}

// CriticalFlows finds the smallest flow count in [nMin, nMax] predicted
// to oscillate (the paper's Fig. 9 onsets), or nMax+1 if none.
func CriticalFlows(p Protocol, params AnalysisParams, nMin, nMax int) (int, error) {
	return core.CriticalFlows(p, params, nMin, nMax)
}

// FluidConfig builds a fluid-model configuration (Eqs. 1–3) matching the
// protocol's marker.
func FluidConfig(p Protocol, params AnalysisParams, flows int, duration time.Duration) (fluid.Config, error) {
	return core.FluidConfig(p, params, flows, duration)
}

// SolveFluid integrates the DCTCP fluid model.
func SolveFluid(cfg fluid.Config) (*fluid.Result, error) { return fluid.Solve(cfg) }

// DCTCPDF is the describing function of the single-threshold marker
// (Eq. 22).
type DCTCPDF = control.DCTCPDF

// DTDCTCPDF is the describing function of the double-threshold marker
// (Eq. 27).
type DTDCTCPDF = control.DTDCTCPDF

// NumericDF computes a describing function by direct Fourier integration
// of a relay waveform; mark receives the phase θ and returns the relay
// output for the input X·sin(θ).
func NumericDF(x float64, steps int, mark func(theta float64) float64) complex128 {
	return control.NumericDF(x, steps, mark)
}

// MarkDecision is one step of a marker replay.
type MarkDecision = core.MarkDecision

// ReplayMarker drives a queue trajectory (packets) through the protocol's
// marker and records per-arrival decisions, reproducing Fig. 2.
func ReplayMarker(p Protocol, trajectoryPkts []int) ([]MarkDecision, error) {
	return core.ReplayMarker(p, trajectoryPkts)
}

// TriangleTrajectory builds a rise-and-fall queue trajectory for
// ReplayMarker.
func TriangleTrajectory(peak int) []int { return core.TriangleTrajectory(peak) }

// D2TCP returns the deadline-aware DCTCP extension (Vamanan et al.,
// SIGCOMM'12), which the paper cites as a DCTCP successor: DCTCP's marker
// with a backoff penalty of α^d for deadline urgency d. Configure
// deadlines via TestbedConfig.Deadline.
func D2TCP(kPackets int, g float64) Protocol { return core.D2TCPProto(kPackets, g) }

// RenoPIE returns NewReno/ECN endpoints over a PIE queue (RFC 8033)
// draining at the given rate and targeting the given queueing delay — a
// delay-targeting AQM baseline contemporaneous with the paper.
func RenoPIE(drainRate Rate, target time.Duration) Protocol {
	return core.RenoPIE(drainRate, target)
}

// RenoCoDel returns NewReno/ECN endpoints over a CoDel queue (RFC 8289)
// with the given sojourn target and control interval.
func RenoCoDel(target, interval time.Duration) Protocol {
	return core.RenoCoDel(target, interval)
}

// Cubic returns loss-driven CUBIC (RFC 8312) over DropTail — the Linux
// default TCP of the paper's era.
func Cubic() Protocol { return core.CubicProto() }

// Margins are the classical gain/phase margins of the marking loop,
// quantifying distance from oscillation onset.
type Margins = control.Margins

// StabilityMargins computes the loop's gain and phase margins against the
// marker's describing function at the given flow count.
func StabilityMargins(p Protocol, params AnalysisParams, flows int) (Margins, error) {
	return core.StabilityMargins(p, params, flows)
}

// BuildupResult summarizes the short flows' completion times.
type BuildupResult = core.BuildupResult

// RunBuildup executes the queue-buildup microbenchmark the paper inherits
// from the DCTCP evaluation under a protocol: 20 KB short transfers
// sharing the 10 Gbps dumbbell's bottleneck with 2 bulk flows.
func RunBuildup(p Protocol) (*BuildupResult, error) { return core.RunBuildup(p) }

// FabricConfig is a trace-driven workload on a multi-tier datacenter
// fabric (k-ary fat-tree or leaf-spine Clos) with deterministic ECMP
// routing.
type FabricConfig = core.FabricConfig

// FabricResult aggregates one fabric run: FCT percentiles per size
// bucket, queue summaries at the core/aggregation tiers, mark and drop
// rates, and the run's reproducibility digest.
type FabricResult = core.FabricResult

// LoadSweepPoint is one (load factor, result) sample of a fabric load
// sweep.
type LoadSweepPoint = core.LoadSweepPoint

// FlowSizeCDF is an empirical flow-size distribution for trace-driven
// workloads.
type FlowSizeCDF = flowgen.CDF

// TrafficMatrix selects how a workload draws flow endpoints.
type TrafficMatrix = flowgen.Matrix

// Traffic matrices.
const (
	TrafficRandom      = flowgen.Random
	TrafficPermutation = flowgen.Permutation
	TrafficIncast      = flowgen.Incast
)

// BuiltinFlowCDF returns a named builtin flow-size distribution:
// "websearch", "websearch-small", or "datamining".
func BuiltinFlowCDF(name string) (*FlowSizeCDF, error) { return flowgen.BuiltinCDF(name) }

// ParseFlowCDF reads a flow-size trace in the ns2-style
// "<size_bytes> [id] <cdf>" format.
func ParseFlowCDF(r io.Reader) (*FlowSizeCDF, error) { return flowgen.ParseCDF(r) }

// RunFabric executes a fabric scenario to completion.
func RunFabric(cfg FabricConfig) (*FabricResult, error) { return core.RunFabric(cfg) }

// SweepLoadsParallel runs the fabric at each load factor on up to
// workers goroutines; results are byte-identical for any worker count.
func SweepLoadsParallel(ctx context.Context, base FabricConfig, loads []float64, workers int) ([]LoadSweepPoint, error) {
	return core.SweepLoadsParallel(ctx, base, loads, workers)
}

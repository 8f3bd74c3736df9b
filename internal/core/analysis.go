package core

import (
	"errors"
	"time"

	"dtdctcp/internal/aqm"
	"dtdctcp/internal/control"
	"dtdctcp/internal/fluid"
	"dtdctcp/internal/sim"
)

// AnalysisParams carries the network parameters shared by the
// describing-function and fluid-model analyses.
type AnalysisParams struct {
	// CapacityPktsPerSec is the bottleneck capacity C in packets/second.
	CapacityPktsPerSec float64
	// RTT is the reference round-trip time R₀ in seconds.
	RTT float64
	// G is DCTCP's α gain.
	G float64
}

// PaperAnalysisParams returns the parameter set behind the paper's Fig. 9:
// R = 100 µs, g = 1/16, and C = 10 Gbps expressed as 10⁷ pkts/s — the
// packet unit under which the paper's reported onsets (N ≈ 60 for DCTCP,
// N ≈ 70 for DT-DCTCP) come out of Eqs. (19)/(24); see DESIGN.md for the
// unit-sensitivity discussion.
func PaperAnalysisParams() AnalysisParams {
	return AnalysisParams{CapacityPktsPerSec: 1e7, RTT: 1e-4, G: 1.0 / 16}
}

// Plant builds the linearized plant of Eq. (18) for n flows.
func (a AnalysisParams) Plant(n int) control.Plant {
	return control.Plant{C: a.CapacityPktsPerSec, N: float64(n), R0: a.RTT, G: a.G}
}

// marker returns the protocol's describing function for the
// describing-function analyses, refusing a gain outside (0, 1], a
// protocol the runners refuse and a protocol with no ECN marker.
func (a AnalysisParams) marker(p Protocol) (control.DF, error) {
	if err := validG(a.G); err != nil {
		return nil, err
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	df := p.DF()
	if df == nil {
		return nil, errors.New("core: protocol has no ECN marker to analyze")
	}
	return df, nil
}

// AnalyzeStability runs the describing-function criterion for the
// protocol's marker at the given flow count.
func AnalyzeStability(p Protocol, params AnalysisParams, flows int) (control.Verdict, error) {
	df, err := params.marker(p)
	if err != nil {
		return control.Verdict{}, err
	}
	return control.Analyze(params.Plant(flows), df)
}

// CriticalFlows finds the smallest flow count in [nMin, nMax] predicted to
// oscillate under the protocol's marker, or nMax+1 if none.
func CriticalFlows(p Protocol, params AnalysisParams, nMin, nMax int) (int, error) {
	df, err := params.marker(p)
	if err != nil {
		return 0, err
	}
	return control.CriticalN(params.Plant(1), df, nMin, nMax)
}

// StabilityMargins computes the loop's gain and phase margins against the
// protocol's describing function at the given flow count.
func StabilityMargins(p Protocol, params AnalysisParams, flows int) (control.Margins, error) {
	df, err := params.marker(p)
	if err != nil {
		return control.Margins{}, err
	}
	return control.StabilityMargins(params.Plant(flows), df)
}

// FluidConfig builds a fluid-model configuration matching the protocol's
// marker for n flows, integrating for the given duration.
func FluidConfig(p Protocol, params AnalysisParams, flows int, duration time.Duration) (fluid.Config, error) {
	if err := validG(params.G); err != nil {
		return fluid.Config{}, err
	}
	if err := p.validate(); err != nil {
		return fluid.Config{}, err
	}
	law := p.MarkingLaw()
	if law == nil {
		return fluid.Config{}, errors.New("core: protocol has no marking law")
	}
	return fluid.Config{
		N:           float64(flows),
		C:           params.CapacityPktsPerSec,
		D:           params.RTT,
		G:           params.G,
		Law:         law,
		RTTRefQueue: p.refQueue(),
		Duration:    duration.Seconds(),
	}, nil
}

// MarkDecision is one step of a marker replay (Fig. 2).
type MarkDecision struct {
	// QueuePkts is the queue occupancy presented to the marker.
	QueuePkts int
	// Marked reports whether the arriving packet got CE.
	Marked bool
}

// ReplayMarker drives a queue-length trajectory (in packets) through a
// fresh instance of the protocol's marker and records the per-arrival
// marking decisions. It reproduces the paper's Fig. 2 comparison of the
// two marking strategies on the same queue trajectory. The replay is an
// offline analysis with no engine, so randomized laws receive no source
// and degrade to their deterministic behaviour.
func ReplayMarker(p Protocol, trajectoryPkts []int) ([]MarkDecision, error) {
	if p.law == lawNone {
		return nil, errors.New("core: protocol has no queue law")
	}
	pol := p.NewPolicy(nil)
	pktSize := p.PacketSize()
	out := make([]MarkDecision, len(trajectoryPkts))
	for i, q := range trajectoryPkts {
		v := pol.OnArrival(sim.Time(i), q*pktSize, pktSize)
		out[i] = MarkDecision{QueuePkts: q, Marked: v == aqm.AcceptMark}
	}
	return out, nil
}

// TriangleTrajectory builds a symmetric rise-and-fall queue trajectory
// from 0 to peak and back, one packet per step — the canonical input for
// ReplayMarker.
func TriangleTrajectory(peak int) []int {
	if peak <= 0 {
		return nil
	}
	out := make([]int, 0, 2*peak+1)
	for q := 0; q <= peak; q++ {
		out = append(out, q)
	}
	for q := peak - 1; q >= 0; q-- {
		out = append(out, q)
	}
	return out
}

package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"

	"dtdctcp"
)

// stabilityCmd runs the describing-function analysis: the Nyquist verdict
// and limit cycle at one flow count, or the critical flow count (Fig. 9).
// C is in the 10⁷ pkt/s unit under which the paper's onsets come out
// (DESIGN.md, judgment call 1).
var stabilityCmd = subcommand{
	name:     "stability",
	flags:    "protocol k k1 k2 g flows c rtt critical nmin nmax locus",
	defaults: map[string]string{"flows": "60"},
	quick:    map[string]string{"nmax": "100"},
	run:      runStability,
}

// fluidCmd integrates the DCTCP fluid model (Eqs. 1–3) and reports the
// steady-state queue. C defaults to 10 Gbit/s of 1500-byte packets.
var fluidCmd = subcommand{
	name:     "fluid",
	flags:    "protocol k k1 k2 g flows c rtt duration plot csv",
	defaults: map[string]string{"c": fmt.Sprint(10e9 / 8 / 1500), "duration": "200ms"},
	quick:    map[string]string{"duration": "20ms"},
	run:      runFluid,
}

func (o *opts) analysisParams() dtdctcp.AnalysisParams {
	return dtdctcp.AnalysisParams{CapacityPktsPerSec: o.c, RTT: o.rtt.Seconds(), G: o.g}
}

func runStability(o *opts, _ *flag.FlagSet, w io.Writer) error {
	proto, err := o.protocolOne()
	if err != nil {
		return err
	}
	params := o.analysisParams()
	if o.critical {
		onset, err := dtdctcp.CriticalFlows(proto, params, o.nMin, o.nMax)
		switch {
		case err != nil:
		case onset > o.nMax:
			fmt.Fprintf(w, "%s: stable for every N in [%d, %d]\n", proto.Name, o.nMin, o.nMax)
		default:
			fmt.Fprintf(w, "%s: oscillation onset at N = %d\n", proto.Name, onset)
		}
		return err
	}

	v, err := dtdctcp.AnalyzeStability(proto, params, o.flows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "protocol        %s\n", proto.Name)
	fmt.Fprintf(w, "flows           %d\n", o.flows)
	fmt.Fprintf(w, "stable          %t\n", v.Stable)
	fmt.Fprintf(w, "locus distance  %.4f (normalized closest approach)\n", v.ClosestApproach)
	if !v.Stable {
		fmt.Fprintf(w, "limit cycle     amplitude %.1f packets, frequency %.0f rad/s (period %.1f µs)\n",
			v.Cycle.Amplitude, v.Cycle.Frequency, v.Cycle.PeriodSeconds()*1e6)
	}
	if m, err := dtdctcp.StabilityMargins(proto, params, o.flows); err == nil {
		fmt.Fprintf(w, "gain margin     %.2f (×, >1 stable) at phase crossover %.0f rad/s\n",
			m.GainMargin, m.PhaseCrossover)
		if !math.IsNaN(m.PhaseMargin) {
			fmt.Fprintf(w, "phase margin    %.1f° at gain crossover %.0f rad/s\n",
				m.PhaseMargin*180/math.Pi, m.GainCrossover)
		}
	}
	if o.locus == "" {
		return nil
	}
	// The marker's own gain: 1/K for DCTCP, 1/K2 for DT-DCTCP.
	ws, zs := params.Plant(o.flows).Locus(proto.DF().K0(), 1e2, 1e7, 2000)
	err = o.locus.write(func(f io.Writer) error {
		fmt.Fprintln(f, "w,re,im")
		for i := range ws {
			fmt.Fprintf(f, "%s,%s,%s\n",
				strconv.FormatFloat(ws[i], 'g', -1, 64),
				strconv.FormatFloat(real(zs[i]), 'g', -1, 64),
				strconv.FormatFloat(imag(zs[i]), 'g', -1, 64))
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "locus written to %s\n", o.locus)
	return nil
}

func runFluid(o *opts, _ *flag.FlagSet, w io.Writer) error {
	proto, err := o.protocolOne()
	if err != nil {
		return err
	}
	cfg, err := dtdctcp.FluidConfig(proto, o.analysisParams(), o.flows, o.duration)
	if err != nil {
		return err
	}
	res, err := dtdctcp.SolveFluid(cfg)
	if err != nil {
		return err
	}

	w0, a0 := cfg.OperatingPoint()
	fmt.Fprintf(w, "protocol          %s\n", proto.Name)
	fmt.Fprintf(w, "flows             %d\n", o.flows)
	fmt.Fprintf(w, "operating point   W0 = %.2f pkts, alpha0 = %.3f\n", w0, a0)
	fmt.Fprintf(w, "queue mean        %.1f packets (steady state)\n", res.QueueMean)
	fmt.Fprintf(w, "queue stddev      %.1f packets\n", res.QueueStdDev)
	fmt.Fprintf(w, "oscillation amp.  %.1f packets\n", res.QueueAmplitude)

	if o.plot {
		// The statistics above are over the second half: plot the same.
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Queue.After(o.duration.Seconds()/2).Periods(10).AsciiPlot(100, 20))
	}
	if o.csv != "" {
		if err := o.csv.write(res.Queue.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntrajectory written to %s\n", o.csv)
	}
	return nil
}

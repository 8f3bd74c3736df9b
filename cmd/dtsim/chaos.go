package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"dtdctcp"
	"dtdctcp/internal/chaos"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/runner"
)

// chaosCmd perturbs the dumbbell with each fault profile identically for
// each protocol and reports how each recovers: time-to-drain back into
// the pre-fault queue band and time until the oscillation re-locks. Each
// protocol runs at the block's marking defaults (the paper's thresholds).
var chaosCmd = subcommand{
	name:     "chaos",
	flags:    "protocol flows rate seed workers sb-alpha profiles plan o metrics cpuprofile memprofile",
	defaults: map[string]string{"protocol": "dctcp,dt-dctcp", "flows": "40"},
	quick:    map[string]string{"profiles": "blackout", "flows": "8", "rate": "1"},
	run:      runChaos,
}

// chaosReport is one (profile, protocol) recovery measurement.
type chaosReport struct {
	Profile  string `json:"profile"`
	Protocol string `json:"protocol"`

	QueueMeanPkts float64 `json:"queue_mean_pkts"`
	QueueStdPkts  float64 `json:"queue_std_pkts"`
	Utilization   float64 `json:"utilization"`
	FaultDrops    uint64  `json:"fault_drops"`
	Timeouts      uint64  `json:"timeouts"`

	Drained      bool    `json:"drained"`
	DrainTimeMs  float64 `json:"drain_time_ms"`
	Relocked     bool    `json:"relocked"`
	RelockTimeMs float64 `json:"relock_time_ms"`
	RefPeriodUs  float64 `json:"ref_period_us"`
}

type chaosSnapshot struct {
	header
	Reports []chaosReport `json:"reports"`
}

func runChaos(o *opts, fs *flag.FlagSet, w io.Writer) error {
	protos, err := o.protocols()
	if err != nil {
		return err
	}
	plans, err := selectPlans(o.profiles, o.plan)
	if err != nil {
		return err
	}
	// Every (plan, protocol) cell owns a private engine seeded by the
	// configuration alone, so any -workers value gives the serial results.
	results, err := runner.Map(context.Background(), len(plans)*len(protos), runner.Options{Workers: o.workers},
		func(_ context.Context, i int) (*dtdctcp.DumbbellResult, error) {
			plan, proto := plans[i/len(protos)], protos[i%len(protos)]
			res, err := dtdctcp.RunDumbbell(dtdctcp.DumbbellConfig{
				Protocol:         proto,
				Flows:            o.flows,
				Rate:             o.linkRate(),
				RTT:              100 * time.Microsecond,
				BufferPkts:       250,
				Duration:         40 * time.Millisecond,
				Warmup:           10 * time.Millisecond,
				QueueSampleEvery: 20 * time.Microsecond,
				Seed:             o.seed,
				Chaos:            plan,
				Metrics:          o.metrics != "",
				SharedBuffer:     dtdctcp.SharedBufferConfig{Alpha: o.sbAlpha},
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", plan.Name, proto.Name, err)
			}
			return res, nil
		})
	if err != nil {
		return err
	}
	reports := make([]chaosReport, len(results))
	var snaps []metrics.Named
	for i, res := range results {
		plan := plans[i/len(protos)]
		reports[i] = chaosReportOf(plan.Name, res)
		snaps = append(snaps, metrics.Named{Name: plan.Name + "/" + protos[i%len(protos)].Name, Snapshot: res.Metrics})
	}
	if o.metrics != "" {
		if err := metrics.WriteFile(string(o.metrics), snaps); err != nil {
			return err
		}
	}
	printChaos(w, reports)
	if o.out == "" {
		return nil
	}
	return o.out.write(func(f io.Writer) error {
		return printJSON(f, &chaosSnapshot{header: newHeader(fs), Reports: reports})
	})
}

func selectPlans(profiles, planPath string) ([]*chaos.Plan, error) {
	if planPath != "" {
		p, err := chaos.LoadPlan(planPath)
		if err != nil {
			return nil, err
		}
		return []*chaos.Plan{p}, nil
	}
	names := chaos.Profiles()
	if profiles != "" {
		names = strings.Split(profiles, ",")
	}
	plans := make([]*chaos.Plan, 0, len(names))
	for _, name := range names {
		p, err := chaos.Profile(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}

func chaosReportOf(profile string, res *dtdctcp.DumbbellResult) chaosReport {
	rep := chaosReport{
		Profile:       profile,
		Protocol:      res.Protocol,
		QueueMeanPkts: res.QueueMeanPkts,
		QueueStdPkts:  res.QueueStdPkts,
		Utilization:   res.Utilization,
		FaultDrops:    res.FaultDrops,
		Timeouts:      res.Timeouts,
	}
	if r := res.Recovery; r != nil {
		rep.Drained = r.Drained
		rep.DrainTimeMs = r.DrainTime * 1e3
		rep.Relocked = r.Relocked
		rep.RelockTimeMs = r.RelockTime * 1e3
		rep.RefPeriodUs = r.RefPeriod * 1e6
	}
	return rep
}

func printChaos(w io.Writer, reports []chaosReport) {
	fmt.Fprintf(w, "%-10s %-22s %9s %8s %7s %8s %9s %9s\n",
		"profile", "protocol", "qmean", "qstd", "drops", "drain", "relock", "util")
	for _, r := range reports {
		drain := "never"
		if r.Drained {
			drain = fmt.Sprintf("%.2fms", r.DrainTimeMs)
		}
		relock := "never"
		if r.Relocked {
			relock = fmt.Sprintf("%.2fms", r.RelockTimeMs)
		}
		fmt.Fprintf(w, "%-10s %-22s %9.1f %8.1f %7d %8s %9s %9.3f\n",
			r.Profile, r.Protocol, r.QueueMeanPkts, r.QueueStdPkts,
			r.FaultDrops, drain, relock, r.Utilization)
	}
}

// Command dtchaos stresses the paper's stability claim under network
// dynamics: it sweeps fault-injection profiles (link blackouts,
// flapping, capacity degradation, buffer squeezes, background bursts,
// corruption) over the dumbbell scenario, running DCTCP and DT-DCTCP
// under the identical perturbation, and reports how each recovers —
// time-to-drain back into the pre-fault queue band and time until the
// queue oscillation re-locks.
//
// Results are printed as a table and, with -o, also written as
// machine-readable JSON: the snapshot is a pure function of the flags,
// so two -o files from one command line cmp equal.
//
// Usage:
//
//	dtchaos                          # all built-in profiles, print table
//	dtchaos -profiles blackout,burst # a subset
//	dtchaos -plan my.json            # a custom plan file instead
//	dtchaos -o chaos.json            # also write the snapshot as JSON
//	dtchaos -workers 8               # sweep points in parallel (output
//	                                 # is byte-identical for any value)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"dtdctcp"
	"dtdctcp/internal/chaos"
	"dtdctcp/internal/metrics"
	"dtdctcp/internal/runner"
)

// Report is one (profile, protocol) recovery measurement.
type Report struct {
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

// Snapshot is one complete dtchaos run.
type Snapshot struct {
	GoVersion string   `json:"go_version"`
	Seed      int64    `json:"seed"`
	Flows     int      `json:"flows"`
	RateBps   int64    `json:"rate_bps"`
	Reports   []Report `json:"reports"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtchaos:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dtchaos", flag.ContinueOnError)
	var (
		out        = fs.String("o", "", "write the snapshot as JSON to this path")
		profiles   = fs.String("profiles", "", "comma-separated built-in profiles (default: all)")
		planPath   = fs.String("plan", "", "run a custom plan file instead of built-in profiles")
		flows      = fs.Int("flows", 40, "long-lived flows sharing the bottleneck")
		rate       = fs.Int64("rate", int64(10*dtdctcp.Gbps), "bottleneck rate in bits per second")
		seed       = fs.Int64("seed", 1, "engine seed")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel sweep workers (results are identical for any value)")
		zoo        = fs.Bool("zoo", false, "also run the DCTCP+ and HULL zoo protocols under every profile")
		sbAlpha    = fs.Float64("sb-alpha", 0, "shared-buffer dynamic-threshold α; > 0 pools the bottleneck buffer")
		metricsOut = fs.String("metrics", "", "write per-cell observability snapshots as JSON to this path")
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

	plans, err := selectPlans(*profiles, *planPath)
	if err != nil {
		return err
	}
	reports, snaps, err := Sweep(plans, SweepOptions{
		Flows:   *flows,
		Rate:    dtdctcp.Rate(*rate),
		Seed:    *seed,
		Workers: *workers,
		Metrics: *metricsOut != "",
		Zoo:     *zoo,
		SBAlpha: *sbAlpha,
	})
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := metrics.WriteFile(*metricsOut, snaps); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		defer metrics.WriteHeapProfile(*memProfile)
	}

	printTable(w, reports)

	if *out == "" {
		return nil
	}
	raw, err := json.MarshalIndent(&Snapshot{
		GoVersion: runtime.Version(),
		Seed:      *seed,
		Flows:     *flows,
		RateBps:   *rate,
		Reports:   reports,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(raw, '\n'), 0o644)
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

// Protocols compared under every fault profile: the paper's baseline
// and its contribution, at the paper's simulation parameters. With zoo
// set, the DCTCP+ slow-timer sender and the HULL phantom-queue variant
// join the comparison so the extended zoo is exercised under faults too.
func protocols(zoo bool, rate dtdctcp.Rate) []dtdctcp.Protocol {
	ps := []dtdctcp.Protocol{
		dtdctcp.DCTCP(40, 1.0/16),
		dtdctcp.DTDCTCP(30, 50, 1.0/16),
	}
	if zoo {
		ps = append(ps,
			dtdctcp.DCTCPPlus(40, 1.0/16),
			dtdctcp.HULL(40, 0.95, rate, 1.0/16),
		)
	}
	return ps
}

// SweepOptions parameterizes one fault sweep.
type SweepOptions struct {
	Flows   int
	Rate    dtdctcp.Rate
	Seed    int64
	Workers int
	Metrics bool
	// Zoo adds the DCTCP+ and HULL zoo protocols to the comparison.
	Zoo bool
	// SBAlpha, when > 0, pools the bottleneck buffer behind a
	// shared-buffer dynamic-threshold switch, so set-buffer fault
	// events squeeze the pool rather than a private port buffer.
	SBAlpha float64
}

// Sweep runs every (plan, protocol) pair and measures recovery. Points
// run on up to o.Workers goroutines; each owns a private engine seeded
// by the configuration alone, so output is identical for any worker
// count. With o.Metrics set, each cell also returns its observability
// snapshot named "<profile>/<protocol>".
func Sweep(plans []*chaos.Plan, o SweepOptions) ([]Report, []metrics.Named, error) {
	protos := protocols(o.Zoo, o.Rate)
	type point struct {
		plan  *chaos.Plan
		proto dtdctcp.Protocol
	}
	type cell struct {
		rep  Report
		snap *metrics.Snapshot
	}
	var pts []point
	for _, plan := range plans {
		for _, proto := range protos {
			pts = append(pts, point{plan, proto})
		}
	}
	cells, err := runner.Map(context.Background(), len(pts), runner.Options{Workers: o.Workers},
		func(_ context.Context, i int) (cell, error) {
			pt := pts[i]
			cfg := dtdctcp.DumbbellConfig{
				Protocol:         pt.proto,
				Flows:            o.Flows,
				Rate:             o.Rate,
				RTT:              100 * time.Microsecond,
				BufferPkts:       250,
				Duration:         40 * time.Millisecond,
				Warmup:           10 * time.Millisecond,
				QueueSampleEvery: 20 * time.Microsecond,
				Seed:             o.Seed,
				Chaos:            pt.plan,
				Metrics:          o.Metrics,
			}
			if o.SBAlpha > 0 {
				cfg.SharedBuffer = dtdctcp.SharedBufferConfig{Alpha: o.SBAlpha}
			}
			res, err := dtdctcp.RunDumbbell(cfg)
			if err != nil {
				return cell{}, fmt.Errorf("%s/%s: %w", pt.plan.Name, pt.proto.Name, err)
			}
			rep := Report{
				Profile:       pt.plan.Name,
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
			return cell{rep: rep, snap: res.Metrics}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	reports := make([]Report, len(cells))
	var snaps []metrics.Named
	for i, c := range cells {
		reports[i] = c.rep
		if o.Metrics {
			snaps = append(snaps, metrics.Named{
				Name:     pts[i].plan.Name + "/" + pts[i].proto.Name,
				Snapshot: c.snap,
			})
		}
	}
	return reports, snaps, nil
}

func printTable(w io.Writer, reports []Report) {
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

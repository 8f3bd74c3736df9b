package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"dtdctcp"
	"dtdctcp/internal/metrics"
)

var dumbbellCmd = subcommand{
	name: "dumbbell",
	flags: "protocol k k1 k2 g gamma flows rate rtt buffer duration warmup seed " +
		"sb-alpha sb-pool sb-bottleneck-only plot csv trace metrics metrics-prom metrics-sample cpuprofile memprofile",
	quick: map[string]string{"flows": "4", "duration": "10ms", "warmup": "2ms"},
	run:   runDumbbell,
}

func runDumbbell(o *opts, _ *flag.FlagSet, w io.Writer) error {
	proto, err := o.protocolOne()
	if err != nil {
		return err
	}
	cfg := dtdctcp.DumbbellConfig{
		Protocol:           proto,
		Flows:              o.flows,
		Rate:               o.linkRate(),
		RTT:                o.rtt,
		BufferPkts:         o.buffer,
		Duration:           o.duration,
		Warmup:             o.warmup,
		Seed:               o.seed,
		AlphaSampleEvery:   time.Millisecond,
		Metrics:            o.metrics != "" || o.prom != "",
		MetricsSampleEvery: o.metricsSample,
		// An α = 0 leaves the private buffers.
		SharedBuffer: dtdctcp.SharedBufferConfig{Alpha: o.sbAlpha, PoolPkts: o.sbPool, BottleneckOnly: o.sbBottleneckOnly},
	}
	if o.plot || o.csv != "" {
		cfg.QueueSampleEvery = o.rtt / 4
	}
	var res *dtdctcp.DumbbellResult
	simulate := func(trace io.Writer) (err error) {
		cfg.TraceTo = trace
		res, err = dtdctcp.RunDumbbell(cfg)
		return err
	}
	if o.trace != "" {
		err = o.trace.write(simulate)
	} else {
		err = simulate(nil)
	}
	if err != nil {
		return err
	}

	printDumbbell(w, res)
	if o.plot && res.QueueSeries != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.QueueSeries.After(o.warmup.Seconds()).Periods(10).AsciiPlot(100, 20))
	}
	if o.csv != "" && res.QueueSeries != nil {
		if err := o.csv.write(res.QueueSeries.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nqueue trace written to %s\n", o.csv)
	}
	if o.metrics != "" {
		if err := metrics.WriteFile(string(o.metrics), []metrics.Named{{Name: "dumbbell", Snapshot: res.Metrics}}); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics written to %s\n", o.metrics)
	}
	if o.prom != "" {
		if err := o.prom.write(res.Metrics.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(w, "prometheus metrics written to %s\n", o.prom)
	}
	return nil
}

func printDumbbell(w io.Writer, res *dtdctcp.DumbbellResult) {
	fmt.Fprintf(w, "protocol      %s\n", res.Protocol)
	fmt.Fprintf(w, "flows         %d\n", res.Flows)
	fmt.Fprintf(w, "queue mean    %.1f packets\n", res.QueueMeanPkts)
	fmt.Fprintf(w, "queue stddev  %.1f packets\n", res.QueueStdPkts)
	fmt.Fprintf(w, "queue min/max %.0f / %.0f packets\n", res.QueueMinPkts, res.QueueMaxPkts)
	fmt.Fprintf(w, "alpha mean    %.3f\n", res.AlphaMean)
	fmt.Fprintf(w, "utilization   %.1f%%\n", res.Utilization*100)
	fmt.Fprintf(w, "marks/drops   %d / %d\n", res.Marks, res.Drops)
	fmt.Fprintf(w, "timeouts      %d\n", res.Timeouts)
}

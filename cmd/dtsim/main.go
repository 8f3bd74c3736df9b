// Command dtsim runs the repository's scenarios from flags, one
// subcommand per scenario family:
//
//	dumbbell   one long-lived-flows dumbbell (Section VI-A, Figs. 1, 10–12)
//	fabric     a fat-tree or leaf-spine under a trace-driven workload, FCTs as JSON
//	hybrid     the hybrid fluid/packet co-simulation against its packet reference
//	stability  the describing-function analysis (Sections IV–V, Fig. 9)
//	fluid      the DCTCP fluid model (Eqs. 1–3)
//
// Examples:
//
//	dtsim dumbbell -protocol dt-dctcp -k1 30 -k2 50 -flows 60 -plot
//	dtsim fabric -quick > fabric.json
//	dtsim stability -protocol dt-dctcp -critical
//
// Every subcommand takes its flags from one block, so a flag has one
// spelling, one unit and one meaning wherever it appears: -rate is
// Gbit/s, -rtt and -duration are durations, -flows counts flows, -k is a
// marking threshold. A subcommand takes only the flags it has a use for
// and may set its own defaults (`dtsim <subcommand> -h` lists both). -protocol names presets from one
// table; a subcommand that compares protocols takes a comma list. -quick
// fills in a small configuration for the flags the command line leaves
// unset. A JSON report echoes every flag that shaped it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"dtdctcp"
	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtsim:", err)
		os.Exit(1)
	}
}

// profile is metrics.Profile; a test swaps it to fail the CPU profile's
// close.
var profile = metrics.Profile

// subcommand is one scenario family: the flags it takes from the block,
// the defaults it sets apart from the block's, and what -quick sets.
type subcommand struct {
	name            string
	flags           string
	defaults, quick map[string]string
	run             func(o *opts, fs *flag.FlagSet, w io.Writer) error
}

var subcommands = []*subcommand{&dumbbellCmd, &fabricCmd, &hybridCmd, &stabilityCmd, &fluidCmd}

func run(args []string, w io.Writer) error {
	names := make([]string, len(subcommands))
	for i, c := range subcommands {
		if len(args) > 0 && args[0] == c.name {
			if err := c.exec(args[1:], w); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			return nil
		}
		names[i] = c.name
	}
	return fmt.Errorf("want a subcommand: %s", strings.Join(names, ", "))
}

// exec builds the subcommand's flag set from the block, parses args,
// applies -quick to the flags args leave unset and runs the subcommand
// inside its profiles.
func (c *subcommand) exec(args []string, w io.Writer) error {
	o := new(opts)
	block := flag.NewFlagSet("", flag.ContinueOnError)
	o.define(block)
	fs := flag.NewFlagSet("dtsim "+c.name, flag.ContinueOnError)
	for _, name := range strings.Fields(c.flags) {
		f := block.Lookup(name)
		fs.Var(f.Value, name, f.Usage)
	}
	for name, def := range c.defaults {
		f := fs.Lookup(name)
		if f == nil || f.Value.Set(def) != nil {
			panic(fmt.Sprintf("dtsim %s: no flag -%s to default to %q", c.name, name, def))
		}
		f.DefValue = f.Value.String()
	}
	fs.BoolVar(&o.quick, "quick", false, "small configuration for a fast smoke pass, for the flags the command line leaves unset")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.quick {
		unset := maps.Clone(c.quick)
		fs.Visit(func(f *flag.Flag) { delete(unset, f.Name) })
		for name, v := range unset {
			if err := fs.Set(name, v); err != nil {
				return err
			}
		}
	}

	return profile(string(o.cpuProfile), string(o.memProfile), func() error {
		return c.run(o, fs, w)
	})
}

// opts is the one flag block: one field per flag, whichever subcommands
// take it.
type opts struct {
	protocol                        string
	k, k1, k2, flows, buffer        int
	g, gamma, rate                  float64
	rtt, duration, warmup           time.Duration
	seed                            int64
	quick                           bool
	metrics, cpuProfile, memProfile path
	sbAlpha                         float64
	sbPool                          int
	sbBottleneckOnly, plot          bool
	csv, trace, prom, locus         path
	metricsSample                   time.Duration
	topo, cdf, matrix               string
	arity, leaves, spines           int
	hostsPerLeaf                    int
	hop, fgGap, rtoMin              time.Duration
	load, c                         float64
	smallMax, largeMin, fgBytes     int64
	bg, fg, nMin, nMax              int
	critical                        bool
}

// define declares the block with the defaults most subcommands share: the
// paper's Section VI-A dumbbell (10 Gbps, 100 µs RTT, DCTCP K = 40,
// DT-DCTCP K1 = 30 / K2 = 50, g = 1/16).
func (o *opts) define(fs *flag.FlagSet) {
	fs.StringVar(&o.protocol, "protocol", "dctcp", "protocol preset: "+strings.Join(presetNames(), ", ")+"; a comma list where the subcommand compares protocols")
	fs.IntVar(&o.k, "k", 40, "single marking threshold in packets (dctcp, dctcp+, hull, reno-ecn)")
	fs.IntVar(&o.k1, "k1", 30, "DT-DCTCP mark-on threshold in packets")
	fs.IntVar(&o.k2, "k2", 50, "DT-DCTCP mark-off threshold in packets")
	fs.Float64Var(&o.g, "g", 1.0/16, "DCTCP estimation gain")
	fs.Float64Var(&o.gamma, "gamma", 0.95, "HULL phantom-queue drain as a fraction of line rate (hull)")
	fs.IntVar(&o.flows, "flows", 10, "number of flows (long-lived flows, the fabric's trace length, or the analyses' N)")
	fs.Float64Var(&o.rate, "rate", 10, "link rate in Gbit/s")
	fs.DurationVar(&o.rtt, "rtt", 100*time.Microsecond, "round-trip propagation time")
	fs.DurationVar(&o.duration, "duration", 100*time.Millisecond, "measured (or integrated) interval")
	fs.DurationVar(&o.warmup, "warmup", 20*time.Millisecond, "settling interval excluded from statistics")
	fs.IntVar(&o.buffer, "buffer", 600, "buffer per port in packets")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.Var(&o.metrics, "metrics", "write the observability snapshots as JSON to this path")
	fs.Var(&o.cpuProfile, "cpuprofile", "write a CPU profile to this path")
	fs.Var(&o.memProfile, "memprofile", "write a heap profile to this path")
	fs.Float64Var(&o.sbAlpha, "sb-alpha", 0, "shared-buffer dynamic-threshold α; > 0 pools the switch buffers")
	fs.IntVar(&o.sbPool, "sb-pool", 0, "shared-buffer pool size in packets (0 = bottleneck buffer)")
	fs.BoolVar(&o.sbBottleneckOnly, "sb-bottleneck-only", false, "pool only the bottleneck port (diagnostic single-port limit)")
	fs.BoolVar(&o.plot, "plot", false, "print an ASCII queue trace of about ten periods of the steady state")
	fs.Var(&o.csv, "csv", "write the queue trace as CSV to this path")
	fs.Var(&o.trace, "trace", "write per-packet bottleneck events as JSONL to this path")
	fs.Var(&o.prom, "metrics-prom", "write the snapshot in Prometheus text format to this path")
	fs.DurationVar(&o.metricsSample, "metrics-sample", 0, "sample queue/α/cwnd gauges into snapshot series at this virtual-time period")
	fs.StringVar(&o.topo, "topo", "fattree", "topology: fattree or leafspine")
	fs.IntVar(&o.arity, "arity", 4, "fat-tree arity (even)")
	fs.IntVar(&o.leaves, "leaves", 4, "leaf-spine: number of leaf switches")
	fs.IntVar(&o.spines, "spines", 4, "leaf-spine: number of spine switches")
	fs.IntVar(&o.hostsPerLeaf, "hosts-per-leaf", 4, "leaf-spine: hosts per leaf")
	fs.DurationVar(&o.hop, "hop", 10*time.Microsecond, "per-link propagation delay")
	fs.StringVar(&o.cdf, "cdf", flowgen.WebSearchSmall, "flow-size CDF: builtin name or trace file path")
	fs.Float64Var(&o.load, "load", 0.6, "offered load as a fraction of bisection bandwidth")
	fs.StringVar(&o.matrix, "matrix", "random", "traffic matrix: random, permutation, incast")
	fs.Int64Var(&o.smallMax, "small-max", 100_000, "largest small-bucket flow in bytes")
	fs.Int64Var(&o.largeMin, "large-min", 1_000_000, "smallest large-bucket flow in bytes")
	fs.IntVar(&o.bg, "bg", 60, "background flows (fluid in hybrid mode, real senders in the reference)")
	fs.IntVar(&o.fg, "fg", 4, "foreground senders")
	fs.Int64Var(&o.fgBytes, "fg-bytes", 20_000, "bytes per foreground transfer")
	fs.DurationVar(&o.fgGap, "fg-gap", 500*time.Microsecond, "think time between foreground transfers")
	fs.DurationVar(&o.rtoMin, "rto-min", 10*time.Millisecond, "RTO floor for all senders")
	fs.Float64Var(&o.c, "c", 1e7, "capacity in packets/second")
	fs.BoolVar(&o.critical, "critical", false, "search the critical flow count instead")
	fs.IntVar(&o.nMin, "nmin", 2, "critical search lower bound")
	fs.IntVar(&o.nMax, "nmax", 200, "critical search upper bound")
	fs.Var(&o.locus, "locus", "write the K0*G(jw) locus as CSV to this path")
}

// linkRate is -rate as a simulator rate.
func (o *opts) linkRate() dtdctcp.Rate { return dtdctcp.Rate(o.rate * float64(dtdctcp.Gbps)) }

// preset is one name -protocol takes and the protocol it builds from the
// marking flags.
type preset struct {
	name  string
	build func(o *opts) dtdctcp.Protocol
}

// presets is the table -protocol names come from.
var presets = []preset{
	{"dctcp", func(o *opts) dtdctcp.Protocol { return dtdctcp.DCTCP(o.k, o.g) }},
	{"dt-dctcp", func(o *opts) dtdctcp.Protocol { return dtdctcp.DTDCTCP(o.k1, o.k2, o.g) }},
	{"dctcp+", func(o *opts) dtdctcp.Protocol { return dtdctcp.DCTCPPlus(o.k, o.g) }},
	{"hull", func(o *opts) dtdctcp.Protocol { return dtdctcp.HULL(o.k, o.gamma, o.linkRate(), o.g) }},
	{"reno", func(*opts) dtdctcp.Protocol { return dtdctcp.Reno() }},
	{"reno-ecn", func(o *opts) dtdctcp.Protocol { return dtdctcp.RenoECN(o.k) }},
}

func presetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// protocols resolves the -protocol list. The marking flags are checked
// here, before anything runs, the ones the chosen protocol ignores too.
func (o *opts) protocols() ([]dtdctcp.Protocol, error) {
	switch {
	case o.k < 0 || o.k1 < 0 || o.k2 < 0:
		return nil, fmt.Errorf("marking thresholds must not be negative: -k %d -k1 %d -k2 %d", o.k, o.k1, o.k2)
	case !(o.gamma > 0):
		return nil, fmt.Errorf("-gamma %g must be positive", o.gamma)
	}
	var ps []dtdctcp.Protocol
	for _, name := range strings.Split(o.protocol, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(presets, func(p preset) bool { return p.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown protocol %q (want %s)", name, strings.Join(presetNames(), ", "))
		}
		ps = append(ps, presets[i].build(o))
	}
	return ps, nil
}

// protocolOne resolves -protocol where the subcommand runs one.
func (o *opts) protocolOne() (dtdctcp.Protocol, error) {
	ps, err := o.protocols()
	if err != nil {
		return dtdctcp.Protocol{}, err
	}
	if len(ps) != 1 {
		return dtdctcp.Protocol{}, fmt.Errorf("-protocol %s: this subcommand runs one protocol, not a comparison", o.protocol)
	}
	return ps[0], nil
}

// path is a flag naming a file a subcommand writes; empty writes none.
type path string

func (p *path) String() string     { return string(*p) }
func (p *path) Set(s string) error { *p = path(s); return nil }

// write creates the file, fills it through a buffer and closes it,
// reporting the first error; the buffer keeps the first write error, so
// fill may leave write errors to it.
func (p path) write(fill func(io.Writer) error) error {
	f, err := os.Create(string(p))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// header opens every JSON report: the toolchain and every resolved flag
// but the output paths, since where a report is written is not part of
// what produced it.
type header struct {
	GoVersion string            `json:"go_version"`
	Config    map[string]string `json:"config"`
}

func newHeader(fs *flag.FlagSet) header {
	h := header{GoVersion: runtime.Version(), Config: make(map[string]string)}
	fs.VisitAll(func(f *flag.Flag) {
		if _, out := f.Value.(*path); !out {
			h.Config[f.Name] = f.Value.String()
		}
	})
	return h
}

// printJSON writes a report as indented JSON.
func printJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

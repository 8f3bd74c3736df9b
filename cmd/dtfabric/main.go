// Command dtfabric runs the datacenter-fabric experiment: DCTCP against
// DT-DCTCP on a k-ary fat-tree or leaf-spine Clos under a trace-driven
// workload, reporting flow-completion-time percentiles per size bucket,
// queue summaries at the core and aggregation tiers, and mark/drop
// rates as machine-readable JSON.
//
// The report goes to stdout and is a pure function of the flags — no
// wall-clock state, so two runs of one command line cmp equal and
// nothing needs committing; timings live in the ledger (go run
// ./benchmarks). The -verify-shards flag makes the determinism contract
// executable: every listed shard count must reproduce the serial digest
// bit for bit, and the verified counts are recorded in the report.
//
// Usage:
//
//	dtfabric > fabric.json            # DCTCP/DT-DCTCP pair on a k=4 fat-tree
//	dtfabric -quick                   # small leaf-spine (CI smoke)
//	dtfabric -topo leafspine -leaves 4 -spines 2 -hosts-per-leaf 4
//	dtfabric -cdf datamining -load 0.8 -matrix permutation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dtdctcp"
	"dtdctcp/internal/flowgen"
)

// Config echoes the flags that shaped a snapshot, so a report documents
// its own provenance.
type Config struct {
	Topology     string  `json:"topology"`
	K            int     `json:"k,omitempty"`
	Leaves       int     `json:"leaves,omitempty"`
	Spines       int     `json:"spines,omitempty"`
	HostsPerLeaf int     `json:"hosts_per_leaf,omitempty"`
	RateGbps     float64 `json:"rate_gbps"`
	HopMicros    float64 `json:"hop_micros"`
	BufferPkts   int     `json:"buffer_pkts"`
	CDF          string  `json:"cdf"`
	Load         float64 `json:"load"`
	Flows        int     `json:"flows"`
	Matrix       string  `json:"matrix"`
	SmallMax     int64   `json:"small_max_bytes"`
	LargeMin     int64   `json:"large_min_bytes"`
	Seed         int64   `json:"seed"`
	MarkK        int     `json:"mark_k"`
	MarkK1       int     `json:"mark_k1"`
	MarkK2       int     `json:"mark_k2"`
}

// Snapshot is one complete dtfabric run: the two protocols side by
// side, plus the shard counts whose digests were verified against the
// serial run.
type Snapshot struct {
	GoVersion      string                  `json:"go_version"`
	Config         Config                  `json:"config"`
	Results        []*dtdctcp.FabricResult `json:"results"`
	ShardsVerified []int                   `json:"shards_verified,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dtfabric:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dtfabric", flag.ContinueOnError)
	var (
		topology = fs.String("topo", "fattree", "topology: fattree or leafspine")
		k        = fs.Int("k", 4, "fat-tree arity (even)")
		leaves   = fs.Int("leaves", 4, "leaf-spine: number of leaf switches")
		spines   = fs.Int("spines", 4, "leaf-spine: number of spine switches")
		hostsPer = fs.Int("hosts-per-leaf", 4, "leaf-spine: hosts per leaf")
		rateGbps = fs.Float64("rate", 1, "link rate in Gbit/s (hosts and fabric)")
		hop      = fs.Duration("hop", 10*time.Microsecond, "per-link propagation delay")
		buffer   = fs.Int("buffer", 100, "per-port buffer in packets")
		cdfName  = fs.String("cdf", flowgen.WebSearchSmall, "flow-size CDF: builtin name or trace file path")
		load     = fs.Float64("load", 0.6, "offered load as a fraction of bisection bandwidth")
		flows    = fs.Int("flows", 50000, "trace length in flows")
		matrixS  = fs.String("matrix", "random", "traffic matrix: random, permutation, incast")
		smallMax = fs.Int64("small-max", 100_000, "largest small-bucket flow in bytes")
		largeMin = fs.Int64("large-min", 1_000_000, "smallest large-bucket flow in bytes")
		seed     = fs.Int64("seed", 1, "simulation seed")
		shards   = fs.Int("shards", 1, "event wheels for the reported runs (1 = serial)")
		verify   = fs.String("verify-shards", "", "comma-separated shard counts that must reproduce the serial digest (e.g. 1,2,4)")
		markK    = fs.Int("K", 20, "DCTCP marking threshold in packets")
		markK1   = fs.Int("K1", 15, "DT-DCTCP lower threshold in packets")
		markK2   = fs.Int("K2", 25, "DT-DCTCP upper threshold in packets")
		g        = fs.Float64("g", 1.0/16, "DCTCP EWMA gain")
		zoo      = fs.Bool("zoo", false, "also run the DCTCP+ and HULL zoo protocols over the fabric")
		quick    = fs.Bool("quick", false, "small leaf-spine and short trace for a fast smoke pass, where those flags are not given")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		// Only for flags the command line left alone: -quick -flows 500
		// runs 500 flows.
		small := map[string]string{
			"topo": "leafspine", "leaves": "2", "spines": "2", "hosts-per-leaf": "2",
			"flows": "80", "load": "0.4",
		}
		fs.Visit(func(f *flag.Flag) { delete(small, f.Name) })
		for name, v := range small {
			if err := fs.Set(name, v); err != nil {
				return err
			}
		}
	}

	cdf, err := loadCDF(*cdfName)
	if err != nil {
		return err
	}
	matrix, err := flowgen.ParseMatrix(*matrixS)
	if err != nil {
		return err
	}
	base := dtdctcp.FabricConfig{
		Topology:     *topology,
		K:            *k,
		Leaves:       *leaves,
		Spines:       *spines,
		HostsPerLeaf: *hostsPer,
		Rate:         dtdctcp.Rate(*rateGbps * float64(dtdctcp.Gbps)),
		HopDelay:     *hop,
		BufferPkts:   *buffer,
		CDF:          cdf,
		Load:         *load,
		Flows:        *flows,
		Matrix:       matrix,
		SmallMax:     *smallMax,
		LargeMin:     *largeMin,
		Seed:         *seed,
		Shards:       *shards,
	}
	protocols := []dtdctcp.Protocol{
		dtdctcp.DCTCP(*markK, *g),
		dtdctcp.DTDCTCP(*markK1, *markK2, *g),
	}
	if *zoo {
		protocols = append(protocols,
			dtdctcp.DCTCPPlus(*markK, *g),
			dtdctcp.HULL(*markK, 0.95, base.Rate, *g),
		)
	}

	snap := &Snapshot{
		GoVersion: runtime.Version(),
		Config: Config{
			Topology: *topology, RateGbps: *rateGbps,
			HopMicros: float64(*hop) / float64(time.Microsecond), BufferPkts: *buffer,
			CDF: *cdfName, Load: *load, Flows: *flows, Matrix: matrix.String(),
			SmallMax: *smallMax, LargeMin: *largeMin, Seed: *seed,
			MarkK: *markK, MarkK1: *markK1, MarkK2: *markK2,
		},
	}
	if *topology == "fattree" {
		snap.Config.K = *k
	} else {
		snap.Config.Leaves, snap.Config.Spines, snap.Config.HostsPerLeaf = *leaves, *spines, *hostsPer
	}

	verifyCounts, err := parseShardList(*verify)
	if err != nil {
		return err
	}
	for _, p := range protocols {
		cfg := base
		cfg.Protocol = p
		res, err := dtdctcp.RunFabric(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Fprintf(os.Stderr, "dtfabric: %s: %d/%d flows, digest %s, %d events\n",
			p.Name, res.Completed, res.Flows, res.Digest, res.Events)
		for _, sc := range verifyCounts {
			if sc == cfg.Shards {
				continue // already the reported run
			}
			vc := cfg
			vc.Shards = sc
			vres, err := dtdctcp.RunFabric(vc)
			if err != nil {
				return fmt.Errorf("%s shards=%d: %w", p.Name, sc, err)
			}
			if vres.Digest != res.Digest {
				return fmt.Errorf("%s: shards=%d digest %s != shards=%d digest %s",
					p.Name, sc, vres.Digest, cfg.Shards, res.Digest)
			}
			fmt.Fprintf(os.Stderr, "dtfabric: %s: shards=%d reproduces digest %s\n",
				p.Name, sc, vres.Digest)
		}
		snap.Results = append(snap.Results, res)
	}
	snap.ShardsVerified = verifyCounts

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// loadCDF resolves a builtin name, falling back to a trace file path.
func loadCDF(name string) (*dtdctcp.FlowSizeCDF, error) {
	if c, err := dtdctcp.BuiltinFlowCDF(name); err == nil {
		return c, nil
	} else if _, statErr := os.Stat(name); statErr != nil {
		return nil, err // not a file either: report the builtin error
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dtdctcp.ParseFlowCDF(f)
}

func parseShardList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -verify-shards entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

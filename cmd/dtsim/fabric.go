package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dtdctcp"
	"dtdctcp/internal/flowgen"
)

// fabricCmd compares protocols on a fat-tree or leaf-spine under a
// trace-driven workload and prints FCT percentiles, tier queues and
// mark/drop rates as JSON holding no wall-clock state.
var fabricCmd = subcommand{
	name: "fabric",
	flags: "protocol k k1 k2 g topo arity leaves spines hosts-per-leaf rate hop buffer " +
		"cdf load flows matrix small-max large-min seed cpuprofile memprofile",
	defaults: map[string]string{
		"protocol": "dctcp,dt-dctcp", "k": "20", "k1": "15", "k2": "25", "rate": "1", "buffer": "100", "flows": "50000",
	},
	quick: map[string]string{
		"topo": "leafspine", "leaves": "2", "spines": "2", "hosts-per-leaf": "2",
		"flows": "80", "load": "0.4",
	},
	run: runFabric,
}

type fabricSnapshot struct {
	header
	Results []*dtdctcp.FabricResult `json:"results"`
}

func runFabric(o *opts, fs *flag.FlagSet, w io.Writer) error {
	protos, err := o.protocols()
	if err != nil {
		return err
	}
	cdf, err := loadCDF(o.cdf)
	if err != nil {
		return err
	}
	matrix, err := flowgen.ParseMatrix(o.matrix)
	if err != nil {
		return err
	}
	base := dtdctcp.FabricConfig{
		Topology:     o.topo,
		K:            o.arity,
		Leaves:       o.leaves,
		Spines:       o.spines,
		HostsPerLeaf: o.hostsPerLeaf,
		Rate:         o.linkRate(),
		HopDelay:     o.hop,
		BufferPkts:   o.buffer,
		CDF:          cdf,
		Load:         o.load,
		Flows:        o.flows,
		Matrix:       matrix,
		SmallMax:     o.smallMax,
		LargeMin:     o.largeMin,
		Seed:         o.seed,
	}
	snap := &fabricSnapshot{header: newHeader(fs)}
	for _, p := range protos {
		cfg := base
		cfg.Protocol = p
		res, err := dtdctcp.RunFabric(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Fprintf(os.Stderr, "dtsim fabric: %s: %d/%d flows, digest %s, %d events\n",
			p.Name, res.Completed, res.Flows, res.Digest, res.Events)
		snap.Results = append(snap.Results, res)
	}
	return printJSON(w, snap)
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

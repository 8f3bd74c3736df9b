package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/flowgen"
	"dtdctcp/internal/netsim"
)

func fabricConfig(t *testing.T) FabricConfig {
	t.Helper()
	cdf, err := flowgen.BuiltinCDF(flowgen.WebSearchSmall)
	if err != nil {
		t.Fatal(err)
	}
	return FabricConfig{
		Protocol:     DCTCP(20, 1.0/16),
		Topology:     "leafspine",
		Leaves:       2,
		Spines:       2,
		HostsPerLeaf: 2,
		Rate:         netsim.Gbps,
		HopDelay:     10 * time.Microsecond,
		BufferPkts:   100,
		CDF:          cdf,
		Load:         0.4,
		Flows:        60,
		Seed:         42,
	}
}

func TestRunFabricLeafSpine(t *testing.T) {
	res, err := RunFabric(fabricConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Flows {
		t.Fatalf("completed %d/%d flows", res.Completed, res.Flows)
	}
	if res.Topology != "leafspine" || res.Hosts != 4 {
		t.Fatalf("echoed %s/%d hosts", res.Topology, res.Hosts)
	}
	if len(res.Digest) != 16 {
		t.Fatalf("digest %q is not a 64-bit hex word", res.Digest)
	}
	if len(res.FCT) != 3 {
		t.Fatalf("want 3 FCT buckets, got %d", len(res.FCT))
	}
	total := 0
	for _, b := range res.FCT {
		total += b.Completed
		if b.Completed > 0 && b.P99Seconds < b.P50Seconds {
			t.Fatalf("bucket %s: p99 %v < p50 %v", b.Bucket, b.P99Seconds, b.P50Seconds)
		}
	}
	if total != res.Flows {
		t.Fatalf("buckets hold %d completions, want %d", total, res.Flows)
	}
	// Every queue observation point must have fired, and the workload is
	// heavy enough to queue at least sometimes.
	if res.CoreQueue.Samples == 0 || res.AggQueue.Samples == 0 {
		t.Fatalf("queue monitors silent: core %d, agg %d", res.CoreQueue.Samples, res.AggQueue.Samples)
	}
	if res.Events == 0 {
		t.Fatal("no events processed")
	}
}

func TestRunFabricFatTreeWithMetrics(t *testing.T) {
	cfg := fabricConfig(t)
	cfg.Topology = "fattree"
	cfg.K = 4
	cfg.Metrics = true
	res, err := RunFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 16 {
		t.Fatalf("k=4 fat-tree has %d hosts, want 16", res.Hosts)
	}
	if res.Completed != res.Flows {
		t.Fatalf("completed %d/%d", res.Completed, res.Flows)
	}
	if res.Metrics == nil {
		t.Fatal("metrics requested but snapshot missing")
	}
	var fct, queue int
	for _, m := range res.Metrics.Metrics {
		switch m.Name {
		case "flowgen_fct_seconds":
			fct++
		case "fabric_queue_pkts":
			queue++
		}
	}
	if fct != 3 || queue != 2 {
		t.Fatalf("snapshot carries %d FCT and %d queue histograms, want 3 and 2", fct, queue)
	}
}

func TestRunFabricValidates(t *testing.T) {
	good := fabricConfig(t)
	for name, mutate := range map[string]func(*FabricConfig){
		"bad topology": func(c *FabricConfig) { c.Topology = "torus" },
		"nil cdf":      func(c *FabricConfig) { c.CDF = nil },
		"zero load":    func(c *FabricConfig) { c.Load = 0 },
		"zero flows":   func(c *FabricConfig) { c.Flows = 0 },
		"zero rate":    func(c *FabricConfig) { c.Rate = 0 },
		"zero delay":   func(c *FabricConfig) { c.HopDelay = 0 },
		"zero buffer":  func(c *FabricConfig) { c.BufferPkts = 0 },
		"neg shards":   func(c *FabricConfig) { c.Shards = -1 },
		"odd k": func(c *FabricConfig) {
			c.Topology = "fattree"
			c.K = 3
		},
	} {
		bad := good
		mutate(&bad)
		if _, err := RunFabric(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestFabricDeterminism is the acceptance property: the same seed and
// topology produce byte-identical digests on repeat runs.
func TestFabricDeterminism(t *testing.T) {
	base := fabricConfig(t)
	serial, err := RunFabric(base)
	if err != nil {
		t.Fatal(err)
	}

	repeat, err := RunFabric(base)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Digest != serial.Digest {
		t.Fatalf("repeat run diverged: %s vs %s", repeat.Digest, serial.Digest)
	}
	// ACKs of spurious retransmissions reach senders that have already
	// completed and retired; the count must be live for the comparison
	// below to mean anything.
	if serial.DroppedNoFlow == 0 {
		t.Fatal("no packet was refused for a closed connection: DroppedNoFlow is not wired")
	}
	// The losses are at host NICs, outside Drops, and the receivers
	// reassemble around them; both counts must be live too.
	if serial.HostDrops == 0 || serial.OutOfOrder == 0 {
		t.Fatalf("HostDrops %d, OutOfOrder %d: a count is not wired", serial.HostDrops, serial.OutOfOrder)
	}
	// Those refused ACKs answer duplicates that reached a receiver after
	// it had closed: each one resumed it from its TIME_WAIT record.
	if serial.LateDuplicates == 0 {
		t.Fatal("no segment was answered from TIME_WAIT: LateDuplicates is not wired")
	}
}

// TestFabricShardsIgnored pins the deprecated Shards field: any count
// runs the one serial path, so the digest, the outcome and the FCT
// statistics are those of Shards 0. PIE, which draws from the engine's
// random source while the run executes, once had to be refused on more
// than one shard; it runs now.
func TestFabricShardsIgnored(t *testing.T) {
	pie := fabricConfig(t)
	pie.Protocol = RenoPIE(pie.Rate, 500*time.Microsecond)
	pie.Flows = 400
	for name, base := range map[string]FabricConfig{"dctcp": fabricConfig(t), "pie": pie} {
		want, err := RunFabric(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, shards := range []int{0, 1, 2, 4} {
			cfg := base
			cfg.Shards = shards
			got, err := RunFabric(cfg)
			if err != nil {
				t.Fatalf("%s, Shards %d: %v", name, shards, err)
			}
			if got.Digest != want.Digest || !reflect.DeepEqual(got.Outcome, want.Outcome) || !reflect.DeepEqual(got.FCT, want.FCT) {
				t.Fatalf("%s, Shards %d: digest %s, outcome %+v, FCT %+v; Shards 0 gives %s, %+v, %+v",
					name, shards, got.Digest, got.Outcome, got.FCT, want.Digest, want.Outcome, want.FCT)
			}
		}
	}
}

// TestSweepLoadsParallelWorkers pins worker-count invariance: each point
// owns a private engine, so 1 worker and 4 workers agree byte for byte.
func TestSweepLoadsParallelWorkers(t *testing.T) {
	base := fabricConfig(t)
	base.Flows = 30
	loads := []float64{0.2, 0.5}
	one, err := SweepLoadsParallel(context.Background(), base, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := SweepLoadsParallel(context.Background(), base, loads, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i].Result.Digest != many[i].Result.Digest {
			t.Fatalf("load %.2f: workers 1 vs 4 diverged", loads[i])
		}
		if one[i].Load != loads[i] {
			t.Fatalf("point %d out of order", i)
		}
	}
}

// FuzzFabricConfig is the robustness contract of the fabric entry point:
// any input is either refused with a core:, flowgen: or topo: reason, or
// runs to completion without a panic and completes no more flows than it
// offered. A NaN or vanishing load once overflowed virtual time and
// panicked inside the engine; an infinite one ran every flow at t = 0.
func FuzzFabricConfig(f *testing.F) {
	f.Add(0.4, 60, 2, 2, 2, 100, 20, int64(10))
	f.Add(math.NaN(), 60, 2, 2, 2, 100, 20, int64(10))
	f.Add(1e-300, 60, 2, 2, 2, 100, 20, int64(10))
	f.Add(math.Inf(1), 60, 2, 2, 2, 100, 20, int64(10))
	f.Add(1e300, 64, 3, 1, 4, 1, 1, int64(1))                // every flow at t = 0, a one-packet buffer
	f.Add(1e-9, 8, 2, 2, 1, 100, 20, int64(10))              // flows hours of virtual time apart
	f.Add(-0.5, 60, 0, -1, 2, 0, -3, int64(-10))             // refused: negative load, sizes, buffer, K and delay
	f.Add(0.9, 64, 4, 4, 4, 1000, 200, int64(1000))          // the largest folded fabric
	f.Add(0.4, math.MaxInt32+1, 2, 2, 2, 100, 20, int64(10)) // refused: flow ids past 32 bits

	f.Fuzz(func(t *testing.T, load float64, flows, leaves, spines, hostsPerLeaf, bufPkts, k int, hopUs int64) {
		// Bound the work, not the validity: positive magnitudes are
		// folded into 1..n, sign and zero pass through so the refusals
		// stay reachable, and so does a flow count past the 32-bit flow
		// ids. The load passes through whole.
		fold := func(v, n int) int {
			if v > 0 {
				return 1 + (v-1)%n
			}
			return v
		}
		if flows <= math.MaxInt32 {
			flows = fold(flows, 64)
		}
		leaves, spines, hostsPerLeaf = fold(leaves, 4), fold(spines, 4), fold(hostsPerLeaf, 4)
		bufPkts, k = fold(bufPkts, 1000), fold(k, 200)
		if hopUs > 0 {
			hopUs = 1 + (hopUs-1)%1000
		}
		cfg := fabricConfig(t)
		cfg.Protocol = DCTCP(k, 1.0/16)
		cfg.Load, cfg.Flows = load, flows
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = leaves, spines, hostsPerLeaf
		cfg.BufferPkts = bufPkts
		cfg.HopDelay = time.Duration(hopUs) * time.Microsecond
		res, err := RunFabric(cfg)
		if err != nil {
			for _, prefix := range []string{"core: ", "flowgen: ", "topo: "} {
				if strings.HasPrefix(err.Error(), prefix) {
					return
				}
			}
			t.Fatalf("refusal %q names no package for config %+v", err, cfg)
		}
		if res.Completed > res.Flows || res.Flows != flows {
			t.Fatalf("%d of %d flows completed (%d offered) for config %+v", res.Completed, res.Flows, flows, cfg)
		}
	})
}

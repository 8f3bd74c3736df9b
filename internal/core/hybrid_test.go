package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"dtdctcp/internal/netsim"
)

// hybridTestConfig is a small-but-nonvacuous scenario: enough background
// flows to build a standing queue, a handful of foreground flows, and a
// measured interval long enough to record FCTs.
func hybridTestConfig() HybridConfig {
	// Datacenter-scale RTO (the DCTCP testbed's 10 ms, not the 200 ms WAN
	// default): a foreground flow whose whole window is lost to a
	// transient burst must recover well inside the measured interval.
	proto := DCTCP(40, 1.0/16)
	proto.TCP.RTOMin = 10 * time.Millisecond
	proto.TCP.RTOInitial = 10 * time.Millisecond
	return HybridConfig{
		Protocol:         proto,
		BgFlows:          50,
		FgFlows:          4,
		FgBytes:          20_000,
		FgGap:            500 * time.Microsecond,
		Rate:             10 * netsim.Gbps,
		RTT:              100 * time.Microsecond,
		BufferPkts:       200,
		Duration:         20 * time.Millisecond,
		Warmup:           10 * time.Millisecond,
		QueueSampleEvery: 100 * time.Microsecond,
		Seed:             42,
	}
}

func TestRunHybridSmoke(t *testing.T) {
	res, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "hybrid" {
		t.Fatalf("mode %q, want hybrid", res.Mode)
	}
	if res.CouplerTicks == 0 {
		t.Fatal("coupler never ticked")
	}
	if res.FluidFinal.Step == 0 {
		t.Fatal("fluid model never advanced")
	}
	if res.QueueMeanPkts <= 0 {
		t.Fatalf("background flows built no queue: mean %v", res.QueueMeanPkts)
	}
	if res.FgFCTCount == 0 {
		t.Fatal("no foreground FCTs recorded")
	}
	if res.FgFCTMeanSec <= 0 {
		t.Fatalf("non-positive mean FCT %v", res.FgFCTMeanSec)
	}
	if len(res.Digest) != 16 {
		t.Fatalf("digest %q is not a 64-bit hex word", res.Digest)
	}
	if res.QueueSeries == nil || res.QueueSeries.Len() == 0 {
		t.Fatal("queue series missing despite QueueSampleEvery")
	}
}

func TestRunHybridFullPacketReference(t *testing.T) {
	cfg := hybridTestConfig()
	cfg.BgFlows = 10 // keep the packet-level reference cheap
	cfg.FullPacket = true
	res, err := RunHybrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "packet" {
		t.Fatalf("mode %q, want packet", res.Mode)
	}
	if res.CouplerTicks != 0 || res.FluidFinal.Step != 0 {
		t.Fatal("packet mode ran the fluid coupler")
	}
	if res.QueueMeanPkts <= 0 {
		t.Fatalf("background senders built no queue: mean %v", res.QueueMeanPkts)
	}
	if res.FgFCTCount == 0 {
		t.Fatal("no foreground FCTs recorded")
	}
}

// TestHybridRepeatRunsAreByteIdentical is determinism satellite 1a: the
// same configuration twice gives the same digest.
func TestHybridRepeatRunsAreByteIdentical(t *testing.T) {
	a, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHybrid(hybridTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("repeat run diverged: %s vs %s", a.Digest, b.Digest)
	}
}

func TestHybridConfigValidation(t *testing.T) {
	// want is what the refusal must name; "" accepts any error.
	bad := []struct {
		mutate func(*HybridConfig)
		want   string
	}{
		{func(c *HybridConfig) { c.BgFlows = 0 }, "BgFlows"},
		{func(c *HybridConfig) { c.FgFlows = -1 }, "FgFlows"},
		{func(c *HybridConfig) { c.FgBytes = 0 }, "FgBytes"},
		{func(c *HybridConfig) { c.Rate = 0 }, ""},
		{func(c *HybridConfig) { c.RTT = 0 }, ""},
		{func(c *HybridConfig) { c.BufferPkts = 0 }, ""},
		{func(c *HybridConfig) { c.Duration = 0 }, ""},
		{func(c *HybridConfig) { c.Warmup = -time.Second }, ""},
		// Once a "scheduling into the past" panic at the first completion.
		{func(c *HybridConfig) { c.FgGap = -time.Millisecond }, "core: FgGap must not be negative"},
		{func(c *HybridConfig) { c.Protocol = Reno() }, "marking law"}, // none in hybrid mode
		// A tick longer than the run: once returned coupler_ticks 0 and
		// the statistics of a link with no background, without an error.
		{func(c *HybridConfig) { c.RTT = time.Second }, "exceeds Horizon"},
		// Flow ids are 32 bits; the foreground numbers its flows from 1.
		{func(c *HybridConfig) { c.FgFlows = math.MaxInt32 + 1 }, "core: FgFlows = 2147483648 puts flow ids past 2147483647"},
		// The packet reference numbers its background from 1 << 20.
		{func(c *HybridConfig) { c.FullPacket, c.BgFlows = true, math.MaxInt32-1<<20+2 }, "core: BgFlows = 2146435073 puts flow ids past 2147483647"},
	}
	for i, tc := range bad {
		cfg := hybridTestConfig()
		tc.mutate(&cfg)
		_, err := RunHybrid(cfg)
		if err == nil {
			t.Errorf("case %d: RunHybrid accepted invalid config", i)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not name %q", i, err, tc.want)
		}
	}

	// The packet-level reference has no coupler: a tick longer than the
	// run is no reason to refuse it.
	cfg := hybridTestConfig()
	cfg.BgFlows, cfg.FullPacket, cfg.RTT = 2, true, time.Second
	if _, err := RunHybrid(cfg); err != nil {
		t.Errorf("FullPacket run refused over an unused coupling tick: %v", err)
	}
}

// FuzzHybridConfig is the robustness contract of the hybrid entry point:
// any input either fails validation with an error or runs to completion
// — never a panic, never NaN in the results.
func FuzzHybridConfig(f *testing.F) {
	f.Add(50, int64(100), 40, 2, 200)
	f.Add(1000, int64(100), 40, 0, 600)
	f.Add(1, int64(1), 1, 1, 1)
	f.Add(0, int64(100), 40, 2, 200)  // rejected: no background flows
	f.Add(50, int64(0), 40, 2, 200)   // rejected: zero RTT
	f.Add(50, int64(100), 0, 2, 200)  // rejected: no marking law
	f.Add(50, int64(-5), 40, -3, 200) // rejected: negative RTT and flows
	f.Add(7, int64(100000), 199, 7, 999)
	f.Add(50, int64(100), -40, 2, 200)    // rejected: negative K
	f.Add(50, int64(19_300), 40, 2, 200)  // rejected: the R₀/8 tick just outlasts the 3 ms run
	f.Add(50, int64(19_000), 40, 2, 200)  // exactly one tick
	f.Add(50, int64(50_000), 40, 2, 200)  // rejected: the tick R₀/8 outlasts the run
	f.Add(50, int64(100), 40, 2, 1000)    // folds to a one-packet buffer under a threshold of 41
	f.Add(99_999, int64(100), 40, 7, 200) // folds to the largest background and foreground
	f.Add(50, int64(100), 199, 2, 999)    // rejected: the largest folded threshold stretches R₀/8 past the run

	f.Fuzz(func(t *testing.T, bgFlows int, rttUs int64, k int, fgFlows, bufPkts int) {
		// Bound the work, not the validity: positive magnitudes are
		// folded into a cheap range, sign and zero pass through so the
		// rejection paths stay reachable.
		if bgFlows > 0 {
			bgFlows = 1 + bgFlows%100_000
		}
		if rttUs > 0 {
			rttUs = 1 + rttUs%100_000
		}
		if k > 0 {
			k = 1 + k%200
		}
		if fgFlows > 0 {
			fgFlows = 1 + fgFlows%8
		}
		if bufPkts > 0 {
			bufPkts = 1 + bufPkts%1000
		}
		cfg := HybridConfig{
			Protocol:   DCTCP(k, 1.0/16),
			BgFlows:    bgFlows,
			FgFlows:    fgFlows,
			FgBytes:    10_000,
			FgGap:      time.Millisecond,
			Rate:       100 * netsim.Mbps, // 100 Mbps keeps packet counts small
			RTT:        time.Duration(rttUs) * time.Microsecond,
			BufferPkts: bufPkts,
			Duration:   2 * time.Millisecond,
			Warmup:     time.Millisecond,
			Seed:       1,
		}
		res, err := RunHybrid(cfg)
		if err != nil {
			return // rejected inputs are fine; panics and NaNs are not
		}
		if res.CouplerTicks == 0 {
			t.Fatalf("accepted a run whose coupler never ticked: %+v", cfg)
		}
		for name, v := range map[string]float64{
			"queue mean":  res.QueueMeanPkts,
			"queue std":   res.QueueStdPkts,
			"fluid W":     res.FluidFinal.W,
			"fluid alpha": res.FluidFinal.Alpha,
			"fluid q":     res.FluidFinal.Q,
			"fct mean":    res.FgFCTMeanSec,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v for config %+v", name, v, cfg)
			}
		}
	})
}

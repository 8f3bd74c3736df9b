// Command dthybrid runs the hybrid fluid/packet co-simulation and its
// fully packet-level reference side by side: background flows as the
// Alizadeh fluid model against packet-level foreground traffic, then the
// identical scenario with every background flow as a real windowed
// sender. The report pairs the two runs' queue statistics, oscillation
// estimates, and foreground flow completion times, and records the
// event-count ratio — the hybrid's reason to exist is advancing the same
// simulated horizon in a small fraction of the reference's events.
//
// The report goes to stdout and is a pure function of the flags — no
// wall-clock state, so two runs of one command line cmp equal; the
// ledger times the same scenario as its hybrid_bg60 workload (go run
// ./benchmarks). The -verify-shards flag makes the determinism contract
// executable: every listed shard count must reproduce the serial hybrid
// digest bit for bit.
//
// The default -bg 60 is the largest point the hybrid conformance grid
// checks against the packet reference (30x fewer events, queue mean
// within a few percent). Far past it — 1000 flows against this buffer —
// the fluid has no one-packet window floor, pins the queue at the buffer
// and starves the foreground: a regime the model says nothing about
// (ROADMAP item 5).
//
// Usage:
//
//	dthybrid                          # 60 fluid background flows vs packet reference
//	dthybrid -quick                   # small scenario (CI smoke)
//	dthybrid -bg 40 -fg 8 -proto dtdctcp -K1 30 -K2 50
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
)

// Config echoes the flags that shaped a snapshot, so a report documents
// its own provenance.
type Config struct {
	Proto       string  `json:"proto"`
	MarkK       int     `json:"mark_k,omitempty"`
	MarkK1      int     `json:"mark_k1,omitempty"`
	MarkK2      int     `json:"mark_k2,omitempty"`
	G           float64 `json:"g"`
	BgFlows     int     `json:"bg_flows"`
	FgFlows     int     `json:"fg_flows"`
	FgBytes     int64   `json:"fg_bytes"`
	FgGapMicros float64 `json:"fg_gap_micros"`
	RateGbps    float64 `json:"rate_gbps"`
	RTTMicros   float64 `json:"rtt_micros"`
	BufferPkts  int     `json:"buffer_pkts"`
	WarmupMs    float64 `json:"warmup_ms"`
	DurationMs  float64 `json:"duration_ms"`
	RTOMinMs    float64 `json:"rto_min_ms"`
	Seed        int64   `json:"seed"`
}

// Snapshot is one complete dthybrid run: hybrid and reference modes on
// the same scenario, the event-count ratio between them, and the shard
// counts whose digests were verified against the serial hybrid run.
type Snapshot struct {
	GoVersion string                `json:"go_version"`
	Config    Config                `json:"config"`
	Hybrid    *dtdctcp.HybridResult `json:"hybrid"`
	Packet    *dtdctcp.HybridResult `json:"packet"`
	// EventRatio is packet events / hybrid events for the identical
	// simulated horizon — the deterministic measure of the hybrid's
	// speed advantage.
	EventRatio     float64 `json:"event_ratio"`
	ShardsVerified []int   `json:"shards_verified,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dthybrid:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dthybrid", flag.ContinueOnError)
	var (
		proto    = fs.String("proto", "dctcp", "protocol: dctcp or dtdctcp")
		markK    = fs.Int("K", 40, "DCTCP marking threshold in packets")
		markK1   = fs.Int("K1", 30, "DT-DCTCP lower threshold in packets")
		markK2   = fs.Int("K2", 50, "DT-DCTCP upper threshold in packets")
		g        = fs.Float64("g", 1.0/16, "DCTCP EWMA gain")
		bg       = fs.Int("bg", 60, "background flows (fluid in hybrid mode, real senders in the reference)")
		fg       = fs.Int("fg", 4, "foreground senders")
		fgBytes  = fs.Int64("fg-bytes", 20_000, "bytes per foreground transfer")
		fgGap    = fs.Duration("fg-gap", 500*time.Microsecond, "think time between foreground transfers")
		rateGbps = fs.Float64("rate", 10, "bottleneck rate in Gbit/s")
		rtt      = fs.Duration("rtt", 100*time.Microsecond, "zero-queue round-trip time")
		buffer   = fs.Int("buffer", 600, "bottleneck buffer in packets")
		warmup   = fs.Duration("warmup", 15*time.Millisecond, "settling interval excluded from statistics")
		duration = fs.Duration("duration", 45*time.Millisecond, "measured interval")
		rtoMin   = fs.Duration("rto-min", 10*time.Millisecond, "datacenter RTO floor for all senders")
		seed     = fs.Int64("seed", 1, "simulation seed")
		shards   = fs.Int("shards", 1, "event wheels for the reported runs (1 = serial)")
		verify   = fs.String("verify-shards", "", "comma-separated shard counts that must reproduce the serial hybrid digest (e.g. 1,2)")
		quick    = fs.Bool("quick", false, "small scenario for a fast smoke pass, where those flags are not given")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *quick {
		// Only for flags the command line left alone: -quick -bg 20 runs
		// 20 background flows.
		small := map[string]string{"bg": "50", "warmup": "5ms", "duration": "10ms"}
		fs.Visit(func(f *flag.Flag) { delete(small, f.Name) })
		for name, v := range small {
			if err := fs.Set(name, v); err != nil {
				return err
			}
		}
	}

	var p dtdctcp.Protocol
	switch *proto {
	case "dctcp":
		p = dtdctcp.DCTCP(*markK, *g)
	case "dtdctcp":
		p = dtdctcp.DTDCTCP(*markK1, *markK2, *g)
	default:
		return fmt.Errorf("unknown protocol %q (want dctcp or dtdctcp)", *proto)
	}
	p.TCP.RTOMin = *rtoMin
	p.TCP.RTOInitial = *rtoMin

	base := dtdctcp.HybridConfig{
		Protocol:         p,
		BgFlows:          *bg,
		FgFlows:          *fg,
		FgBytes:          *fgBytes,
		FgGap:            *fgGap,
		Rate:             dtdctcp.Rate(*rateGbps * float64(dtdctcp.Gbps)),
		RTT:              *rtt,
		BufferPkts:       *buffer,
		Duration:         *duration,
		Warmup:           *warmup,
		QueueSampleEvery: *rtt / 5,
		Seed:             *seed,
		Shards:           *shards,
	}
	verifyCounts, err := parseShardList(*verify)
	if err != nil {
		return err
	}

	snap := &Snapshot{
		GoVersion: runtime.Version(),
		Config: Config{
			Proto: *proto, G: *g,
			BgFlows: *bg, FgFlows: *fg, FgBytes: *fgBytes,
			FgGapMicros: float64(*fgGap) / float64(time.Microsecond),
			RateGbps:    *rateGbps,
			RTTMicros:   float64(*rtt) / float64(time.Microsecond),
			BufferPkts:  *buffer,
			WarmupMs:    float64(*warmup) / float64(time.Millisecond),
			DurationMs:  float64(*duration) / float64(time.Millisecond),
			RTOMinMs:    float64(*rtoMin) / float64(time.Millisecond),
			Seed:        *seed,
		},
	}
	if *proto == "dctcp" {
		snap.Config.MarkK = *markK
	} else {
		snap.Config.MarkK1, snap.Config.MarkK2 = *markK1, *markK2
	}

	snap.Hybrid, err = dtdctcp.RunHybrid(base)
	if err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dthybrid: hybrid: digest %s, %d events\n",
		snap.Hybrid.Digest, snap.Hybrid.Events)

	ref := base
	ref.FullPacket = true
	snap.Packet, err = dtdctcp.RunHybrid(ref)
	if err != nil {
		return fmt.Errorf("packet reference: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dthybrid: packet: digest %s, %d events\n",
		snap.Packet.Digest, snap.Packet.Events)

	if h := snap.Hybrid.Events; h > 0 {
		snap.EventRatio = float64(snap.Packet.Events) / float64(h)
	}
	fmt.Fprintf(os.Stderr, "dthybrid: event ratio %.1fx\n", snap.EventRatio)

	for _, sc := range verifyCounts {
		if sc == base.Shards {
			continue // already the reported run
		}
		vc := base
		vc.Shards = sc
		vres, err := dtdctcp.RunHybrid(vc)
		if err != nil {
			return fmt.Errorf("shards=%d: %w", sc, err)
		}
		if vres.Digest != snap.Hybrid.Digest {
			return fmt.Errorf("shards=%d digest %s != shards=%d digest %s",
				sc, vres.Digest, base.Shards, snap.Hybrid.Digest)
		}
		fmt.Fprintf(os.Stderr, "dthybrid: shards=%d reproduces digest %s\n", sc, vres.Digest)
	}
	snap.ShardsVerified = verifyCounts

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
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

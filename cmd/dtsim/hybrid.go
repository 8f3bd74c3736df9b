package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dtdctcp"
)

// hybridCmd runs the hybrid fluid/packet co-simulation (background flows
// as the fluid model) and its fully packet-level reference, and reports
// both with the event-count ratio, the hybrid's reason to exist. The
// default -bg 60 is the largest point the hybrid conformance grid checks;
// far past it the fluid, having no one-packet window floor, pins the
// queue at the buffer and starves the foreground.
var hybridCmd = subcommand{
	name:     "hybrid",
	flags:    "protocol k k1 k2 g bg fg fg-bytes fg-gap rate rtt buffer warmup duration rto-min seed cpuprofile memprofile",
	defaults: map[string]string{"warmup": "15ms", "duration": "45ms"},
	quick:    map[string]string{"bg": "50", "warmup": "5ms", "duration": "10ms"},
	run:      runHybrid,
}

type hybridSnapshot struct {
	header
	Hybrid *dtdctcp.HybridResult `json:"hybrid"`
	Packet *dtdctcp.HybridResult `json:"packet"`
	// EventRatio is packet events / hybrid events for the identical
	// simulated horizon — the deterministic measure of the hybrid's
	// speed advantage.
	EventRatio float64 `json:"event_ratio"`
}

func runHybrid(o *opts, fs *flag.FlagSet, w io.Writer) error {
	p, err := o.protocolOne()
	if err != nil {
		return err
	}
	p.TCP.RTOMin = o.rtoMin
	p.TCP.RTOInitial = o.rtoMin
	base := dtdctcp.HybridConfig{
		Protocol:         p,
		BgFlows:          o.bg,
		FgFlows:          o.fg,
		FgBytes:          o.fgBytes,
		FgGap:            o.fgGap,
		Rate:             o.linkRate(),
		RTT:              o.rtt,
		BufferPkts:       o.buffer,
		Duration:         o.duration,
		Warmup:           o.warmup,
		QueueSampleEvery: o.rtt / 5,
		Seed:             o.seed,
	}
	snap := &hybridSnapshot{header: newHeader(fs)}
	if snap.Hybrid, err = dtdctcp.RunHybrid(base); err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dtsim hybrid: hybrid: digest %s, %d events\n", snap.Hybrid.Digest, snap.Hybrid.Events)
	ref := base
	ref.FullPacket = true
	if snap.Packet, err = dtdctcp.RunHybrid(ref); err != nil {
		return fmt.Errorf("packet reference: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dtsim hybrid: packet: digest %s, %d events\n", snap.Packet.Digest, snap.Packet.Events)
	if h := snap.Hybrid.Events; h > 0 {
		snap.EventRatio = float64(snap.Packet.Events) / float64(h)
	}
	fmt.Fprintf(os.Stderr, "dtsim hybrid: event ratio %.1fx\n", snap.EventRatio)
	return printJSON(w, snap)
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// TestQuickRunVerifiedSharded drives the whole CLI path: a quick
// hybrid/packet pair with shard verification against the serial hybrid
// digest. -quick fills in only what the command line left unset, and the
// report is a pure function of the flags: a second run is byte-identical.
func TestQuickRunVerifiedSharded(t *testing.T) {
	args := []string{"-quick", "-bg", "20", "-verify-shards", "1,2"}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs of %v differ:\n%s\n%s", args, &first, &second)
	}
	var snap Snapshot
	if err := json.Unmarshal(first.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if c := snap.Config; c.BgFlows != 20 || c.DurationMs != 10 {
		t.Fatalf("config %+v, want the quick 10 ms horizon with the 20 background flows asked for", c)
	}
	hyb, pkt := snap.Hybrid, snap.Packet
	if hyb == nil || pkt == nil {
		t.Fatal("want a hybrid/packet result pair")
	}
	if hyb.Mode != "hybrid" || pkt.Mode != "packet" {
		t.Fatalf("modes %q/%q, want hybrid/packet", hyb.Mode, pkt.Mode)
	}
	if len(hyb.Digest) != 16 || len(pkt.Digest) != 16 {
		t.Fatalf("digests %q/%q are not 64-bit hex words", hyb.Digest, pkt.Digest)
	}
	if hyb.FgFCTCount == 0 || pkt.FgFCTCount == 0 {
		t.Fatalf("foreground FCTs missing: hybrid %d, packet %d", hyb.FgFCTCount, pkt.FgFCTCount)
	}
	if snap.EventRatio <= 1 {
		t.Fatalf("event ratio %.2f, want > 1 (the hybrid must need fewer events)", snap.EventRatio)
	}
	if len(snap.ShardsVerified) != 2 {
		t.Fatalf("shards verified %v, want [1 2]", snap.ShardsVerified)
	}
}

// TestDefaultsCompleteForegroundAtSpeedAdvantage holds the defaults to
// the headline claim: the run a bare `dthybrid` makes is alive — the
// hybrid's foreground completes transfers — and advances the same
// simulated horizon in at least 10x fewer events than the packet-level
// reference. Event counts are pure functions of the flags, so this pin
// is machine-independent.
func TestDefaultsCompleteForegroundAtSpeedAdvantage(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Hybrid.FgFCTCount == 0 {
		t.Fatalf("default run (%d background flows) completed no foreground transfer", snap.Config.BgFlows)
	}
	if snap.EventRatio < 10 {
		t.Fatalf("default event ratio %.1fx, want >= 10x", snap.EventRatio)
	}
}

func TestParseShardList(t *testing.T) {
	got, err := parseShardList("1, 2,4")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Fatalf("parseShardList: %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-1", "x", "1,,2"} {
		if _, err := parseShardList(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	if got, err := parseShardList(""); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad proto":   {"-quick", "-proto", "cubic"},
		"bad verify":  {"-quick", "-verify-shards", "zero,"},
		"bad config":  {"-bg", "-1"},
		"unknown arg": {"-frobnicate"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

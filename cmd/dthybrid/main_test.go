package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dtdctcp/internal/report"
)

// TestQuickRunVerifiedSharded drives the whole CLI path: a quick
// hybrid/packet pair with shard verification against the serial hybrid
// digest, merged into a fresh report file.
func TestQuickRunVerifiedSharded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hybrid.json")
	if err := run([]string{"-quick", "-verify-shards", "1,2", "-o", path, "-label", "test"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f report.File[Snapshot]
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema {
		t.Fatalf("schema %q, want %q", f.Schema, schema)
	}
	if f.Current == nil {
		t.Fatal("no current snapshot")
	}
	hyb, pkt := f.Current.Hybrid.Result, f.Current.Packet.Result
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
	if f.Current.EventRatio <= 1 {
		t.Fatalf("event ratio %.2f, want > 1 (the hybrid must need fewer events)", f.Current.EventRatio)
	}
	if len(f.Current.ShardsVerified) != 2 {
		t.Fatalf("shards verified %v, want [1 2]", f.Current.ShardsVerified)
	}
	if f.Current.Label != "test" {
		t.Fatalf("label %q", f.Current.Label)
	}
}

// TestCommittedBaselinePinsSpeedAdvantage reads the repo's committed
// HYBRID_baseline.json and holds it to the headline claim: at 1000
// background flows the hybrid advances the same simulated horizon in at
// least 10x fewer events than the packet-level reference. The event
// counts are pure functions of the recorded config, so this pin is
// machine-independent.
func TestCommittedBaselinePinsSpeedAdvantage(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "HYBRID_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f report.File[Snapshot]
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema {
		t.Fatalf("schema %q, want %q", f.Schema, schema)
	}
	if f.Current == nil {
		t.Fatal("baseline has no current snapshot")
	}
	if got := f.Current.Config.BgFlows; got < 1000 {
		t.Fatalf("baseline records %d background flows, want >= 1000", got)
	}
	if got := f.Current.EventRatio; got < 10 {
		t.Fatalf("baseline event ratio %.1fx, want >= 10x", got)
	}
	if f.Current.Hybrid.Result == nil || f.Current.Hybrid.Result.Digest == "" {
		t.Fatal("baseline hybrid result missing a digest")
	}
	if len(f.Current.ShardsVerified) == 0 {
		t.Fatal("baseline was not shard-verified")
	}
}

func TestMergeDemotesCurrentToHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hybrid.json")
	if err := report.Merge(path, schema, &Snapshot{Label: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := report.Merge(path, schema, &Snapshot{Label: "second"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f report.File[Snapshot]
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Current.Label != "second" || len(f.History) != 1 || f.History[0].Label != "first" {
		t.Fatalf("merge did not demote: current %q, history %+v", f.Current.Label, f.History)
	}
}

func TestMergeRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"schema":"dtbench/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := report.Merge(path, schema, &Snapshot{}); err == nil {
		t.Fatal("merged into a dtbench file")
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
		if err := run(args); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

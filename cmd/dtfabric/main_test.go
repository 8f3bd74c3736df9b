package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dtdctcp/internal/report"
)

// TestQuickRunVerifiedSharded drives the whole CLI path: a quick
// leaf-spine pair with shard verification against the serial digest,
// merged into a fresh report file.
func TestQuickRunVerifiedSharded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.json")
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
	if f.Current == nil || len(f.Current.Results) != 2 {
		t.Fatalf("want a DCTCP/DT-DCTCP result pair, got %+v", f.Current)
	}
	for _, res := range f.Current.Results {
		if res.Completed != res.Flows || len(res.Digest) != 16 {
			t.Fatalf("result %s: completed %d/%d, digest %q",
				res.Protocol, res.Completed, res.Flows, res.Digest)
		}
	}
	if len(f.Current.ShardsVerified) != 2 {
		t.Fatalf("shards verified %v, want [1 2]", f.Current.ShardsVerified)
	}
	if f.Current.Label != "test" {
		t.Fatalf("label %q", f.Current.Label)
	}
}

func TestMergeDemotesCurrentToHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fabric.json")
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

func TestLoadCDFFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sizes.cdf")
	if err := os.WriteFile(path, []byte("1460 0.5\n29200 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCDF(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Points() != 2 {
		t.Fatalf("parsed %d points", c.Points())
	}
	if _, err := loadCDF("no-such-builtin-or-file"); err == nil {
		t.Fatal("resolved a nonexistent CDF")
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
		"bad matrix":  {"-quick", "-matrix", "butterfly"},
		"bad cdf":     {"-quick", "-cdf", "no-such"},
		"bad verify":  {"-quick", "-verify-shards", "zero,"},
		"bad topo":    {"-topo", "torus", "-flows", "10"},
		"unknown arg": {"-frobnicate"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

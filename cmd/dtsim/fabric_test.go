package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFabricQuickRun drives the whole CLI path: a quick leaf-spine pair.
// -quick fills in only what the command line left unset, and the report
// is a pure function of the flags: a second run is byte-identical.
func TestFabricQuickRun(t *testing.T) {
	args := []string{"fabric", "-quick", "-flows", "60"}
	var snap fabricSnapshot
	first := runJSON(t, &snap, args...)
	if second := runJSON(t, new(fabricSnapshot), args...); !bytes.Equal(first, second) {
		t.Fatalf("two runs of %v differ:\n%s\n%s", args, first, second)
	}
	if c := snap.Config; c["topo"] != "leafspine" || c["flows"] != "60" || c["load"] != "0.4" {
		t.Fatalf("config %v, want the quick leaf-spine at load 0.4 with the 60 flows asked for", c)
	}
	if len(snap.Results) != 2 {
		t.Fatalf("want a DCTCP/DT-DCTCP result pair, got %+v", snap.Results)
	}
	for _, res := range snap.Results {
		if res.Flows != 60 || res.Completed != res.Flows || len(res.Digest) != 16 {
			t.Fatalf("result %s: completed %d/%d, digest %q",
				res.Protocol, res.Completed, res.Flows, res.Digest)
		}
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
	// Half the mass at 1460 B, half spread evenly up to 29200 B.
	if got, want := c.Mean(), 0.5*1460+0.5*(1460+29200)/2; got != want {
		t.Fatalf("parsed mean %v, want %v", got, want)
	}
	if _, err := loadCDF("no-such-builtin-or-file"); err == nil {
		t.Fatal("resolved a nonexistent CDF")
	}
}

func TestFabricRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"bad matrix":  {"-quick", "-matrix", "butterfly"},
		"bad cdf":     {"-quick", "-cdf", "no-such"},
		"bad topo":    {"-topo", "torus", "-flows", "10"},
		"quick topo":  {"-quick", "-topo", "ring"},
		"unknown arg": {"-frobnicate"},
	} {
		if err := run(append([]string{"fabric"}, args...), io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

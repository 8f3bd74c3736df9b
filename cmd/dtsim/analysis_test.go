package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dtdctcp"
)

// stability runs the subcommand and returns what it printed.
func stability(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"stability"}, args...), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestStabilityVerdictStable(t *testing.T) {
	if out := stability(t, "-k", "40", "-flows", "10"); !strings.Contains(out, "stable          true") {
		t.Fatalf("N = 10 under DCTCP(K=40) is not stable:\n%s", out)
	}
}

func TestStabilityVerdictOscillating(t *testing.T) {
	out := stability(t, "-k", "40", "-flows", "80")
	if !strings.Contains(out, "stable          false") || !strings.Contains(out, "limit cycle") {
		t.Fatalf("N = 80 under DCTCP(K=40) does not oscillate:\n%s", out)
	}
}

func TestStabilityDTVariant(t *testing.T) {
	out := stability(t, "-protocol", "dt-dctcp", "-k1", "30", "-k2", "50", "-flows", "60")
	if !strings.Contains(out, "dt-dctcp(K1=30,K2=50)") || !strings.Contains(out, "stable          true") {
		t.Fatalf("DT-DCTCP(30, 50) at N = 60:\n%s", out)
	}
}

func TestStabilityCriticalSearch(t *testing.T) {
	if out := stability(t, "-critical", "-nmin", "2", "-nmax", "120"); !strings.Contains(out, "oscillation onset at N = 38") {
		t.Fatalf("critical search: %s", out)
	}
	// Stable-everywhere branch: 1500-byte packet unit.
	if out := stability(t, "-critical", "-c", "833333", "-nmax", "50"); !strings.Contains(out, "stable for every N in [2, 50]") {
		t.Fatalf("critical search: %s", out)
	}
}

func locusRows(t *testing.T, args ...string) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "locus.csv")
	stability(t, append(args, "-locus", path)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n")
}

func TestStabilityLocusCSV(t *testing.T) {
	lines := locusRows(t, "-k", "40", "-flows", "60")
	if lines[0] != "w,re,im" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 2001 {
		t.Fatalf("locus rows = %d, want 2001", len(lines))
	}
}

// TestStabilityLocusUsesMarkerGain: the locus is K0·G(jω) with the
// analysed marker's K0, which for DT-DCTCP is 1/K2.
func TestStabilityLocusUsesMarkerGain(t *testing.T) {
	lines := locusRows(t, "-protocol", "dt-dctcp", "-k2", "50")
	ws, zs := dtdctcp.PaperAnalysisParams().Plant(60).Locus(1.0/50, 1e2, 1e7, 2000)
	want := strconv.FormatFloat(ws[0], 'g', -1, 64) + "," +
		strconv.FormatFloat(real(zs[0]), 'g', -1, 64) + "," +
		strconv.FormatFloat(imag(zs[0]), 'g', -1, 64)
	if lines[1] != want {
		t.Fatalf("first locus row %q, want %q", lines[1], want)
	}
}

func TestStabilityLocusBadPath(t *testing.T) {
	if err := run([]string{"stability", "-locus", "/nonexistent-dir/x.csv"}, io.Discard); err == nil {
		t.Fatal("unwritable locus path accepted")
	}
}

func TestStabilityBadFlag(t *testing.T) {
	if err := run([]string{"stability", "-nope"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestStabilityBadRange(t *testing.T) {
	if err := run([]string{"stability", "-critical", "-nmin", "0"}, io.Discard); err == nil {
		t.Fatal("nmin=0 accepted")
	}
}

func TestFluidDCTCP(t *testing.T) {
	if err := run([]string{"fluid", "-flows", "10", "-duration", "30ms", "-plot"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestFluidDT(t *testing.T) {
	if err := run([]string{"fluid", "-protocol", "dt-dctcp", "-k1", "30", "-k2", "50", "-flows", "20", "-duration", "30ms"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestFluidCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fluid.csv")
	if err := run([]string{"fluid", "-flows", "10", "-duration", "20ms", "-csv", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,q\n") {
		t.Fatalf("csv header: %q", string(data[:10]))
	}
}

func TestFluidCSVBadPath(t *testing.T) {
	if err := run([]string{"fluid", "-flows", "10", "-duration", "10ms", "-csv", "/nonexistent-dir/f.csv"}, io.Discard); err == nil {
		t.Fatal("unwritable csv path accepted")
	}
}

func TestFluidInvalid(t *testing.T) {
	if err := run([]string{"fluid", "-flows", "0"}, io.Discard); err == nil {
		t.Fatal("flows=0 accepted")
	}
	if err := run([]string{"fluid", "-bad"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

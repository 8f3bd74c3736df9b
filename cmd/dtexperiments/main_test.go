package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the committed figure output:
//
//	go test ./cmd/dtexperiments -run ShortFiguresGolden -update
//
// Run it only after a deliberate change to a figure; the diff of
// testdata/short.golden is the reviewable record of what moved.
var update = flag.Bool("update", false, "rewrite testdata/short.golden")

// TestShortFiguresGolden: the tool owns its printed output. Every figure
// id at -short prints, byte for byte, the committed tables.
func TestShortFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures are slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-short", "-fig", "1,2,6,9,10,14,15,aqm,d2,buildup,zoo"}, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "short.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/dtexperiments -run ShortFiguresGolden -update)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("output drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output drifted from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}

func TestRunQuickFigures(t *testing.T) {
	// Figures 2, 6 and 9 have no simulation component and run fast even
	// without -short.
	if err := run([]string{"-fig", "2,6,9"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunShortSimulationFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures are slow")
	}
	if err := run([]string{"-short", "-fig", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestFig1PlotsResolveCycles: at paper scale each Fig. 1 plot shows
// single oscillation cycles, not a solid block — some row below the top
// one has a blank between its first and last point.
func TestFig1PlotsResolveCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation figures are slow")
	}
	var buf bytes.Buffer
	if err := run([]string{"-fig", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	plots := 0
	lines := strings.Split(buf.String(), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "queue (packets") {
			continue
		}
		plots++
		resolved := false
		for _, row := range lines[i+2 : i+13] { // the 11 rows below the top one
			resolved = resolved || strings.Contains(strings.TrimSpace(row), " ")
		}
		if !resolved {
			t.Errorf("plot %d is a solid block:\n%s", plots, strings.Join(lines[i:i+14], "\n"))
		}
	}
	if plots != 2 {
		t.Fatalf("found %d Fig. 1 plots, want 2:\n%s", plots, &buf)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}, io.Discard); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestCPUProfileCloseErrorFails: a CPU profile that fails to close is the
// run's error, not a silent exit 0.
func TestCPUProfileCloseErrorFails(t *testing.T) {
	failed := errors.New("close failed")
	defer func(orig func(string, string, func() error) error) { profile = orig }(profile)
	ran := false
	profile = func(cpu, _ string, fn func() error) error {
		if cpu != "cpu.pprof" {
			t.Errorf("cpu profile path = %q, want cpu.pprof", cpu)
		}
		if err := fn(); err != nil {
			return err
		}
		ran = true
		return failed
	}
	if err := run([]string{"-fig", "2", "-cpuprofile", "cpu.pprof"}, io.Discard); !errors.Is(err, failed) {
		t.Fatalf("run = %v, want the close error", err)
	}
	if !ran {
		t.Fatal("run did not go ahead inside its profile")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zap"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestWorkersFlagDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	// The figure tables must be byte-identical regardless of -workers:
	// every sweep point owns a private engine and rows are emitted in
	// input order.
	var serial, parallel bytes.Buffer
	if err := run([]string{"-short", "-workers", "1", "-fig", "10"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-short", "-workers", "8", "-fig", "10"}, &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("-workers=1 and -workers=8 produced different tables:\n--- workers=1\n%s\n--- workers=8\n%s",
			serial.String(), parallel.String())
	}
}

func TestSweepFiguresDeduplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	// Figures 10, 11, 12 share one sweep; requesting all three must run
	// it once (this is a smoke test that it completes).
	if err := run([]string{"-short", "-fig", "10,11,12"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunZooExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo tables are slow")
	}
	// The zoo tables must render all three families: the DCTCP+ incast
	// comparison, the HULL γ sweep, and the shared-buffer α sweep whose
	// queue max tracks the dynamic-threshold cap αB/(1+α).
	var buf bytes.Buffer
	if err := run([]string{"-short", "-fig", "zoo"}, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"dctcp+", "dt-dctcp", "HULL", "gamma", "alpha", "cap(pkt)",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("zoo output missing %q:\n%s", want, text)
		}
	}
}

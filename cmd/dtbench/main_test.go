package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dtdctcp/internal/report"
)

func readFile(t *testing.T, path string) report.File[Snapshot] {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f report.File[Snapshot]
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMergeDemotesCurrentToHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	if err := report.Merge(path, schema, &Snapshot{Label: "first"}); err != nil {
		t.Fatal(err)
	}
	f := readFile(t, path)
	if f.Schema != schema || f.Current.Label != "first" || len(f.History) != 0 {
		t.Fatalf("after first merge: %+v", f)
	}

	if err := report.Merge(path, schema, &Snapshot{Label: "second"}); err != nil {
		t.Fatal(err)
	}
	f = readFile(t, path)
	if f.Current.Label != "second" {
		t.Fatalf("current = %q, want second", f.Current.Label)
	}
	if len(f.History) != 1 || f.History[0].Label != "first" {
		t.Fatalf("history = %+v, want [first]", f.History)
	}

	if err := report.Merge(path, schema, &Snapshot{Label: "third"}); err != nil {
		t.Fatal(err)
	}
	f = readFile(t, path)
	if len(f.History) != 2 || f.History[0].Label != "first" || f.History[1].Label != "second" {
		t.Fatalf("history = %+v, want [first second] oldest-first", f.History)
	}
}

func TestMergeRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := report.Merge(path, schema, &Snapshot{Label: "x"}); err == nil {
		t.Fatal("corrupt baseline accepted")
	}
}

func TestCommittedBaselineParses(t *testing.T) {
	// The repo's committed baseline must stay parseable and meet the
	// optimization floor this PR establishes: the steady-state event
	// kernel allocates nothing, and the dumbbell path allocates at least
	// 30% less per event than the pre-optimization seed in history.
	raw, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	var f report.File[Snapshot]
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema || f.Current == nil {
		t.Fatalf("baseline malformed: schema=%q current=%v", f.Schema, f.Current)
	}
	for _, m := range f.Current.Metrics {
		if m.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d/op in the committed baseline, want 0", m.Name, m.AllocsPerOp)
		}
	}
	if len(f.History) == 0 || f.Current.Dumbbell == nil || f.History[0].Dumbbell == nil {
		t.Fatal("baseline missing pre-optimization history entry")
	}
	seed := f.History[0].Dumbbell.AllocsPerEvent
	cur := f.Current.Dumbbell.AllocsPerEvent
	if seed <= 0 || cur > 0.7*seed {
		t.Errorf("allocs/event %.4f vs seed %.4f: want ≥30%% reduction", cur, seed)
	}
}

// TestMetricsOverheadSmoke runs the interleaved metrics-on/off pairs and
// checks what about them is deterministic: both sides process the
// identical event stream (pull-based collection cannot perturb the
// simulation; measureOverhead panics otherwise), there are enough pairs
// for a median, and the base timing is not degenerate. The tax itself is
// logged, not bounded: a wall-clock limit inside go test flakes on a
// loaded 2-vCPU box, and metrics.tax_pct in the benchmarks ledger is the
// measurement of record. It measures the full-size dumbbell, not -quick:
// on the short quick run the registry's fixed sampling cost amortizes
// over so few events that per-run jitter swamps the signal.
func TestMetricsOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of paired full-size runs")
	}
	o := measureOverhead(false)
	if o.Events == 0 {
		t.Fatal("overhead pairs processed no events")
	}
	if o.BaseNsPerEvent <= 0 {
		t.Fatalf("degenerate base timing: %.2f ns/event", o.BaseNsPerEvent)
	}
	if o.Runs < 3 {
		t.Fatalf("measured %d pairs, want at least 3 for a median", o.Runs)
	}
	t.Logf("metrics overhead %.2f ns on a %.2f ns event (%.2f%%)",
		o.MetricsNsPerEvent-o.BaseNsPerEvent, o.BaseNsPerEvent, o.DeltaPercent)
}

// TestMedian pins the estimator the overhead pairing rests on, including
// the even-length mean and input immutability.
func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-10, 2, 1000, 3, 4}, 3}, // outlier pairs do not move the median
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v -> %v", c.in, in)
			}
		}
	}
}

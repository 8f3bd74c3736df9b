package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dtdctcp"
	"dtdctcp/internal/chaos"
	"dtdctcp/internal/report"
)

// sweepAll runs every built-in profile once at a reduced scale.
func sweepAll(t *testing.T) []Report {
	t.Helper()
	var plans []*chaos.Plan
	for _, name := range chaos.Profiles() {
		p, err := chaos.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	reports, _, err := Sweep(plans, SweepOptions{Flows: 20, Rate: 1 * dtdctcp.Gbps, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestDTDCTCPRecoversNoSlowerOnSomeProfile pins the acceptance
// criterion: on at least one shipped fault profile, DT-DCTCP both
// drains and re-locks, no slower than DCTCP under the identical
// perturbation.
func TestDTDCTCPRecoversNoSlowerOnSomeProfile(t *testing.T) {
	reports := sweepAll(t)
	byProfile := map[string]map[string]Report{}
	for _, r := range reports {
		if byProfile[r.Profile] == nil {
			byProfile[r.Profile] = map[string]Report{}
		}
		key := "dctcp"
		if len(r.Protocol) > 2 && r.Protocol[:3] == "dt-" {
			key = "dt"
		}
		byProfile[r.Profile][key] = r
	}
	wins := 0
	for profile, pair := range byProfile {
		dctcp, dt := pair["dctcp"], pair["dt"]
		if !dt.Drained || !dt.Relocked {
			continue
		}
		drainOK := !dctcp.Drained || dt.DrainTimeMs <= dctcp.DrainTimeMs
		relockOK := !dctcp.Relocked || dt.RelockTimeMs <= dctcp.RelockTimeMs
		if drainOK && relockOK {
			t.Logf("profile %q: DT drain %.2f ms relock %.2f ms vs DCTCP drain %.2f ms relock %.2f ms (drained=%v relocked=%v)",
				profile, dt.DrainTimeMs, dt.RelockTimeMs, dctcp.DrainTimeMs, dctcp.RelockTimeMs,
				dctcp.Drained, dctcp.Relocked)
			wins++
		}
	}
	if wins == 0 {
		t.Fatalf("DT-DCTCP recovered slower than DCTCP on every profile:\n%+v", reports)
	}
}

// TestSweepDeterministicAcrossWorkers: the sweep output is identical
// for any worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	plan, err := chaos.Profile("blackout")
	if err != nil {
		t.Fatal(err)
	}
	one, _, err := Sweep([]*chaos.Plan{plan}, SweepOptions{Flows: 12, Rate: 1 * dtdctcp.Gbps, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, _, err := Sweep([]*chaos.Plan{plan}, SweepOptions{Flows: 12, Rate: 1 * dtdctcp.Gbps, Seed: 3, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(one)
	b, _ := json.Marshal(eight)
	if string(a) != string(b) {
		t.Fatalf("workers=1 vs workers=8 diverged:\n%s\n%s", a, b)
	}
}

func TestMergeKeepsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.json")
	if err := report.Merge(path, schema, &Snapshot{Label: "first"}); err != nil {
		t.Fatal(err)
	}
	if err := report.Merge(path, schema, &Snapshot{Label: "second"}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f report.File[Snapshot]
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema {
		t.Fatalf("schema = %q", f.Schema)
	}
	if f.Current == nil || f.Current.Label != "second" {
		t.Fatalf("current = %+v", f.Current)
	}
	if len(f.History) != 1 || f.History[0].Label != "first" {
		t.Fatalf("history = %+v", f.History)
	}
}

func TestSelectPlans(t *testing.T) {
	all, err := selectPlans("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(chaos.Profiles()) {
		t.Fatalf("default selected %d plans, want all %d", len(all), len(chaos.Profiles()))
	}
	some, err := selectPlans("blackout, lossy", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].Name != "blackout" || some[1].Name != "lossy" {
		t.Fatalf("subset = %v", some)
	}
	if _, err := selectPlans("meteor", ""); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := selectPlans("", filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing plan file accepted")
	}
}

// TestRunRefusesForeignBaseline drives the CLI onto another command's
// baseline: `dtchaos -o BENCH_baseline.json` used to demote a
// zero-valued "current" into history and rewrite the file.
func TestRunRefusesForeignBaseline(t *testing.T) {
	foreign, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	args := []string{"-profiles", chaos.Profiles()[0], "-flows", "8", "-rate", "1000000000", "-o", path}
	if err := run(args, null); err == nil {
		t.Fatal("merged a dtchaos snapshot into the dtbench baseline")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(foreign) {
		t.Fatal("refused baseline was rewritten")
	}
	// The same invocation onto a fresh path writes a dtchaos file.
	fresh := filepath.Join(t.TempDir(), "chaos.json")
	args[len(args)-1] = fresh
	if err := run(args, null); err != nil {
		t.Fatal(err)
	}
	var f report.File[Snapshot]
	raw, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema || f.Current == nil || len(f.Current.Reports) == 0 {
		t.Fatalf("fresh file: %+v", f)
	}
}

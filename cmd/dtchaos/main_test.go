package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dtdctcp"
	"dtdctcp/internal/chaos"
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

// TestRunSnapshotIsPureFunctionOfFlags drives the CLI twice: -o writes
// the bare snapshot, and the two files are byte-identical.
func TestRunSnapshotIsPureFunctionOfFlags(t *testing.T) {
	var files [2][]byte
	for i := range files {
		path := filepath.Join(t.TempDir(), "chaos.json")
		args := []string{"-profiles", chaos.Profiles()[0], "-flows", "8", "-rate", "1000000000", "-o", path}
		if err := run(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = raw
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two runs wrote different snapshots:\n%s\n%s", files[0], files[1])
	}
	var snap Snapshot
	if err := json.Unmarshal(files[0], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Flows != 8 || len(snap.Reports) == 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

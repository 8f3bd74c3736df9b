package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dtdctcp/internal/chaos"
)

// chaosRun runs the chaos subcommand with -o and returns the file.
func chaosRun(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "chaos.json")
	if err := run(append([]string{"chaos", "-o", path}, args...), io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func chaosReports(t *testing.T, args ...string) []chaosReport {
	t.Helper()
	var snap chaosSnapshot
	if err := json.Unmarshal(chaosRun(t, args...), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Reports
}

// TestDTDCTCPRecoversNoSlowerOnSomeProfile pins the acceptance
// criterion: on at least one shipped fault profile, DT-DCTCP both
// drains and re-locks, no slower than DCTCP under the identical
// perturbation.
func TestDTDCTCPRecoversNoSlowerOnSomeProfile(t *testing.T) {
	reports := chaosReports(t, "-flows", "20", "-rate", "1", "-seed", "1")
	byProfile := map[string]map[string]chaosReport{}
	for _, r := range reports {
		if byProfile[r.Profile] == nil {
			byProfile[r.Profile] = map[string]chaosReport{}
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
	args := []string{"-profiles", "blackout", "-flows", "12", "-rate", "1", "-seed", "3"}
	one := chaosReports(t, append(args, "-workers", "1")...)
	eight := chaosReports(t, append(args, "-workers", "8")...)
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("workers=1 vs workers=8 diverged:\n%+v\n%+v", one, eight)
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

// TestRunSnapshotIsPureFunctionOfFlags: two -o files written to different
// paths by one command line are byte-identical, and echo the flags.
func TestRunSnapshotIsPureFunctionOfFlags(t *testing.T) {
	args := []string{"-profiles", chaos.Profiles()[0], "-flows", "8", "-rate", "1"}
	first, second := chaosRun(t, args...), chaosRun(t, args...)
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs wrote different snapshots:\n%s\n%s", first, second)
	}
	var snap chaosSnapshot
	if err := json.Unmarshal(first, &snap); err != nil {
		t.Fatal(err)
	}
	if c := snap.Config; c["flows"] != "8" || c["rate"] != "1" || c["protocol"] != "dctcp,dt-dctcp" || len(snap.Reports) != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if _, ok := snap.Config["o"]; ok {
		t.Fatal("the output path is echoed as configuration")
	}
}

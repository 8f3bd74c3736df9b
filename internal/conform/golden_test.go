package conform

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the committed digests:
//
//	go test ./internal/conform -run Golden -update
//
// Run it only after a deliberate simulator change; the diff under
// testdata/golden/ is the reviewable record of what moved. Re-running
// without code changes must be diff-clean (TestGoldenDigests passes).
var update = flag.Bool("update", false, "rewrite testdata/golden digests")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// checkGolden compares got with the committed digest of the named
// scenario, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got Digest) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteGoldenFile(path, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := ReadGoldenFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/conform -run Golden -update)", err)
	}
	if got != want {
		t.Errorf("digest drifted from %s:\n got: %+v\nwant: %+v\nIf the simulator change is deliberate, regenerate with -update and commit the diff.",
			path, got, want)
	}
}

// TestGoldenDigests pins every golden scenario's digest byte-for-byte
// against the committed file.
func TestGoldenDigests(t *testing.T) {
	for _, s := range GoldenScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			got, err := DigestRun(s)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, s.Name, got)
		})
	}
}

// TestZooGoldenDigests pins the zoo configurations — DCTCP+ pacing,
// the HULL phantom marker, and the shared-buffer switch — byte-for-byte
// against their committed digests, sharing the -update flag with the
// paper-grid goldens.
func TestZooGoldenDigests(t *testing.T) {
	for _, z := range ZooGoldenScenarios() {
		z := z
		t.Run(z.Name, func(t *testing.T) {
			got, err := DigestZooRun(z)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, z.Name, got)
		})
	}
}

// TestIncastGoldenDigests pins the fresh-connection incast runs — the
// connection-churn path: a sender/receiver pair opened and retired per
// worker per round, under drops and RTOs, with the delayed-ACK and the
// DCTCP+ pacer timers — against digests recorded before connection
// storage was recycled.
func TestIncastGoldenDigests(t *testing.T) {
	for _, g := range IncastGoldenScenarios() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			got, err := DigestIncastRun(g)
			if err != nil {
				t.Fatal(err)
			}
			if got.Events == 0 || got.Timeouts == 0 {
				t.Fatalf("vacuous churn golden (no events or no RTO): %+v", got)
			}
			checkGolden(t, g.Name, got)
		})
	}
}

// The zoo golden runs must be repeat-stable on their own: the DCTCP+
// pacing RNG and the shared-buffer eviction order are the two newest
// places a hidden map-iteration or time.Now dependence could hide.
func TestZooGoldenDigestsRepeatStable(t *testing.T) {
	for _, z := range ZooGoldenScenarios() {
		z := z
		t.Run(z.Name, func(t *testing.T) {
			a, err := DigestZooRun(z)
			if err != nil {
				t.Fatal(err)
			}
			b, err := DigestZooRun(z)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("digest differs between repeated runs:\n%+v\n%+v", a, b)
			}
		})
	}
}

// The digest of a run must not depend on how the grid was scheduled:
// workers=1 and workers=8 must produce identical digests, and so must a
// repeated run — the determinism contract the golden suite rests on.
func TestGoldenDigestsWorkerAndRepeatStable(t *testing.T) {
	scenarios := GoldenScenarios()[:3] // three runs are enough to catch scheduling leaks
	ctx := context.Background()
	w1, err := DigestGrid(ctx, scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	w8, err := DigestGrid(ctx, scenarios, 8)
	if err != nil {
		t.Fatal(err)
	}
	again, err := DigestGrid(ctx, scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scenarios {
		if w1[i] != w8[i] {
			t.Errorf("%s: digest differs between workers=1 and workers=8:\n%+v\n%+v",
				scenarios[i].Name, w1[i], w8[i])
		}
		if w1[i] != again[i] {
			t.Errorf("%s: digest differs between repeated runs:\n%+v\n%+v",
				scenarios[i].Name, w1[i], again[i])
		}
	}
}

// Every committed golden file must correspond to a live scenario, so a
// renamed scenario cannot leave a stale file silently passing nothing.
func TestGoldenFilesMatchScenarios(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, s := range GoldenScenarios() {
		live[s.Name+".json"] = true
	}
	for _, z := range ZooGoldenScenarios() {
		live[z.Name+".json"] = true
	}
	for _, g := range IncastGoldenScenarios() {
		live[g.Name+".json"] = true
	}
	for _, e := range entries {
		if !live[e.Name()] {
			t.Errorf("stale golden file %s: no scenario produces it", e.Name())
		}
	}
	if len(entries) != len(live) {
		t.Errorf("%d golden files for %d scenarios", len(entries), len(live))
	}
}

package conform

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// writeGolden marshals the digest to path as indented JSON with a
// trailing newline, the format the golden files are committed in.
func writeGolden(path string, d Digest) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readGolden parses a digest written by writeGolden.
func readGolden(path string) (Digest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Digest{}, err
	}
	var d Digest
	if err := json.Unmarshal(data, &d); err != nil {
		return Digest{}, fmt.Errorf("conform: parse golden %s: %w", path, err)
	}
	return d, nil
}

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
		if err := writeGolden(path, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := readGolden(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/conform -run Golden -update)", err)
	}
	if got != want {
		t.Errorf("digest drifted from %s:\n got: %+v\nwant: %+v\nIf the simulator change is deliberate, regenerate with -update and commit the diff.",
			path, got, want)
	}
}

// goldensOf returns one family of the golden list: "zoo", "incast", or
// "paper" for the cross-model dumbbells.
func goldensOf(family string) []Golden {
	var out []Golden
	for _, g := range Goldens() {
		f := "paper"
		for _, k := range []string{"zoo", "incast"} {
			if strings.HasPrefix(g.Name, "golden-"+k+"-") {
				f = k
			}
		}
		if f == family {
			out = append(out, g)
		}
	}
	return out
}

// pinGoldens checks each golden of the family against its committed
// digest in a subtest named after it.
func pinGoldens(t *testing.T, family string) {
	for _, g := range goldensOf(family) {
		t.Run(g.Name, func(t *testing.T) {
			got := digest(t, g)
			// A fresh-connection incast that never times out misses the
			// churn path it pins.
			if got.Events == 0 || (family == "incast" && got.Timeouts == 0) {
				t.Fatalf("vacuous golden (no events or no RTO): %+v", got)
			}
			checkGolden(t, g.Name, got)
		})
	}
}

// TestGoldenDigests pins the cross-model dumbbells byte-for-byte against
// the committed files.
func TestGoldenDigests(t *testing.T) { pinGoldens(t, "paper") }

// TestZooGoldenDigests pins the zoo configurations — DCTCP+ pacing, the
// HULL phantom marker, and the shared-buffer switch.
func TestZooGoldenDigests(t *testing.T) { pinGoldens(t, "zoo") }

// TestIncastGoldenDigests pins the fresh-connection incast runs — the
// connection-churn path: a sender/receiver pair opened and retired per
// worker per round, under drops and RTOs, with the delayed-ACK and the
// DCTCP+ pacer timers — against digests recorded before connection
// storage was recycled.
func TestIncastGoldenDigests(t *testing.T) { pinGoldens(t, "incast") }

// The zoo golden runs must be repeat-stable on their own: the DCTCP+
// pacing RNG and the shared-buffer eviction order are the two newest
// places a hidden map-iteration or time.Now dependence could hide.
func TestZooGoldenDigestsRepeatStable(t *testing.T) {
	for _, g := range goldensOf("zoo") {
		t.Run(g.Name, func(t *testing.T) {
			if a, b := digest(t, g), digest(t, g); a != b {
				t.Errorf("digest differs between repeated runs:\n%+v\n%+v", a, b)
			}
		})
	}
}

// The digest of a run must not depend on how the suite was scheduled:
// workers=1 and workers=8 must produce identical digests, and so must a
// repeated run — the determinism contract the golden suite rests on.
func TestGoldenDigestsWorkerAndRepeatStable(t *testing.T) {
	goldens := Goldens()[:3] // three runs are enough to catch scheduling leaks
	ctx := context.Background()
	var runs [3][]Digest
	for i, workers := range []int{1, 8, 1} {
		ds, err := DigestGoldens(ctx, goldens, workers)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = ds
	}
	for i, g := range goldens {
		if runs[0][i] != runs[1][i] {
			t.Errorf("%s: digest differs between workers=1 and workers=8:\n%+v\n%+v", g.Name, runs[0][i], runs[1][i])
		}
		if runs[0][i] != runs[2][i] {
			t.Errorf("%s: digest differs between repeated runs:\n%+v\n%+v", g.Name, runs[0][i], runs[2][i])
		}
	}
}

// Every committed golden file must correspond to a live golden, so a
// renamed golden cannot leave a stale file silently passing nothing.
func TestGoldenFilesMatchScenarios(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, g := range Goldens() {
		live[g.Name+".json"] = true
	}
	for _, e := range entries {
		if !live[e.Name()] {
			t.Errorf("stale golden file %s: no golden produces it", e.Name())
		}
	}
	if len(entries) != len(live) || len(live) != 11 {
		t.Errorf("%d golden files for %d goldens, want 11", len(entries), len(live))
	}
}

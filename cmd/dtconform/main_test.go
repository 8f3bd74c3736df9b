package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtdctcp/internal/conform"
)

// runJSON runs a grid with -json and decodes the output.
func runJSON(t *testing.T, grid string, digests bool) (output, []byte) {
	t.Helper()
	var buf bytes.Buffer
	ok, err := run(&buf, grid, 2, true, digests)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("%s grid failed:\n%s", grid, buf.String())
	}
	var out output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	return out, buf.Bytes()
}

// The quick grid must pass end to end and render every check row.
func TestQuickGridTable(t *testing.T) {
	var buf bytes.Buffer
	ok, err := run(&buf, "quick", 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("quick grid failed:\n%s", buf.String())
	}
	text := buf.String()
	if !strings.Contains(text, "conformance: PASS (4 scenarios)") {
		t.Fatalf("missing summary:\n%s", text)
	}
	for _, want := range []string{"dctcp-k40-n20", "dt3050-n80", "queue-mean/sim-vs-fluid", "period/sim-vs-df"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "FAIL") {
		t.Fatalf("unexpected failing row:\n%s", text)
	}
}

// -json output must parse back into reports with the same verdict, and
// -digests must attach the golden fingerprints.
func TestJSONWithDigests(t *testing.T) {
	out, _ := runJSON(t, "quick", true)
	if !out.Pass || len(out.Reports) != 4 {
		t.Fatalf("want 4 passing reports, got pass=%v n=%d", out.Pass, len(out.Reports))
	}
	if len(out.Digests) == 0 {
		t.Fatal("missing digests")
	}
	for _, d := range out.Digests {
		if d.StatsHash == "" || d.Events == 0 {
			t.Fatalf("empty digest: %+v", d)
		}
	}
}

// -digests prints the whole golden list, whatever the grid, and every
// digest it prints is the one committed under internal/conform.
func TestDigestsMatchGoldenFiles(t *testing.T) {
	out, _ := runJSON(t, "hybrid-quick", true)
	if len(out.Digests) != 11 {
		t.Fatalf("want 11 golden digests, got %d", len(out.Digests))
	}
	for _, d := range out.Digests {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "conform", "testdata", "golden", d.Scenario+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var want conform.Digest
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if d != want {
			t.Errorf("printed digest differs from the committed one:\n got: %+v\nwant: %+v", d, want)
		}
	}
}

func TestUnknownGrid(t *testing.T) {
	var buf bytes.Buffer
	_, err := run(&buf, "bogus", 0, false, false)
	if err == nil || !strings.Contains(err.Error(), "hybrid-quick") {
		t.Fatalf("unknown grid name must error and list the table's grids, got %v", err)
	}
}

// The zoo quick grid must pass end to end and render one scenario per
// family, followed by the golden digest table.
func TestZooQuickGridTable(t *testing.T) {
	var buf bytes.Buffer
	ok, err := run(&buf, "zoo-quick", 0, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("zoo quick grid failed:\n%s", buf.String())
	}
	text := buf.String()
	if !strings.Contains(text, "conformance: PASS (3 scenarios)") {
		t.Fatalf("missing summary:\n%s", text)
	}
	for _, want := range []string{
		"zoo-plus-vs-dt-incast-w16", "zoo-hull-g95-n20",
		"zoo-sharedbuf-single-port-limit", "queue-trace/pooled-vs-private",
		"golden digests:", "golden-dt4060-n40", "golden-incast-fresh-plus-w24",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("table missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "FAIL") {
		t.Fatalf("unexpected failing row:\n%s", text)
	}
}

// The zoo quick grid round-trips through -json with the golden digests,
// and a measured zero stays in the document: below the cliff the
// baseline incast drops nothing, and that passing 0 must read as a value,
// not as a missing one.
func TestZooQuickJSONWithDigests(t *testing.T) {
	out, data := runJSON(t, "zoo-quick", true)
	if !out.Pass || len(out.Reports) != 3 || len(out.Digests) != 11 {
		t.Fatalf("want 3 passing reports and 11 digests, got pass=%v n=%d digests=%d",
			out.Pass, len(out.Reports), len(out.Digests))
	}
	var raw struct {
		Reports []struct {
			Checks []struct {
				Name     string
				Got, Ref *float64
				Pass     bool
			}
		}
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, c := range raw.Reports[0].Checks {
		if c.Name == "drops/dctcp-baseline" {
			if c.Got == nil || *c.Got != 0 || c.Ref == nil || !c.Pass {
				t.Fatalf("passing zero-drop check lost its values: got=%v ref=%v pass=%v", c.Got, c.Ref, c.Pass)
			}
			return
		}
	}
	t.Fatal("zoo-plus-vs-dt-incast-w16 has no drops/dctcp-baseline check")
}

package main

import (
	"bytes"
	"strings"
	"testing"

	"dtdctcp/internal/lint"
)

// TestTreeIsClean is the acceptance gate in test form: the full dtlint
// suite must report nothing on the repository itself, so `go test ./...`
// alone already guards the determinism contract.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on supposedly clean tree: %s", d)
	}
}

// TestSuiteComplete pins the suite composition: the six analyzers the
// determinism contract documents, in reporting order.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"nondeterm", "maporder", "floatcmp", "simtime",
		"hotalloc", "soloengine",
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
	}
}

// TestJSONSchema pins the -json wire format byte for byte: CI and
// external tooling depend on it staying stable.
func TestJSONSchema(t *testing.T) {
	var buf bytes.Buffer
	err := writeReport(&buf, []finding{
		{File: "a.go", Line: 3, Column: 7, Analyzer: "nondeterm", Message: "bad"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "version": 1,
  "count": 1,
  "findings": [
    {
      "file": "a.go",
      "line": 3,
      "column": 7,
      "analyzer": "nondeterm",
      "message": "bad"
    }
  ]
}
`
	if buf.String() != want {
		t.Errorf("JSON schema drifted:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestJSONEmpty pins the clean-tree document: findings must be [], not
// null, so consumers can index unconditionally.
func TestJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeReport(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.Contains(got, `"findings": []`) || !strings.Contains(got, `"count": 0`) {
		t.Errorf("empty report = %s, want count 0 and an empty findings array", got)
	}
}

// TestRunExitCodes exercises the command surface short of a lint run:
// -list succeeds and names every analyzer, a bad flag is exit 2, and so is
// a pattern that does not load.
func TestRunExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d, want 0 (stderr: %s)", code, errOut.String())
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := run([]string{"-C", "../..", "./does-not-exist"}, &out, &errOut); code != 2 {
		t.Errorf("load error exit = %d, want 2", code)
	}
}

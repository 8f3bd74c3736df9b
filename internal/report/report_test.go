package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type snap struct {
	Label string `json:"label"`
}

// TestMergeLayout pins the bytes a merge writes: schema, current, then
// history oldest first, two-space indent, trailing newline.
func TestMergeLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	for _, label := range []string{"first", "second", "third"} {
		if err := Merge(path, "x/v1", &snap{Label: label}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "schema": "x/v1",
  "current": {
    "label": "third"
  },
  "history": [
    {
      "label": "first"
    },
    {
      "label": "second"
    }
  ]
}
`
	if string(got) != want {
		t.Fatalf("merged file:\n%s\nwant:\n%s", got, want)
	}
}

// TestMergeLeavesForeignFileUntouched is the baseline-safety contract:
// a file another command wrote — even one whose snapshots do not fit
// this command's type — is refused by schema and not rewritten.
func TestMergeLeavesForeignFileUntouched(t *testing.T) {
	for name, foreign := range map[string]string{
		"fits":   `{"schema":"other/v1","current":{"label":"keep"}}`,
		"misfit": `{"schema":"other/v1","current":{"label":7}}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(foreign), 0o644); err != nil {
			t.Fatal(err)
		}
		err := Merge(path, "x/v1", &snap{Label: "new"})
		if err == nil || !strings.Contains(err.Error(), `schema "other/v1"`) {
			t.Fatalf("%s: foreign schema not refused by name: %v", name, err)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(after, []byte(foreign)) {
			t.Fatalf("%s: refused file was rewritten:\n%s", name, after)
		}
	}
}

func TestMergeErrors(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(corrupt, "x/v1", &snap{}); err == nil {
		t.Fatal("corrupt file merged")
	}
	// A directory is neither missing nor readable.
	if err := Merge(dir, "x/v1", &snap{}); err == nil {
		t.Fatal("directory merged")
	}
	// A file with no schema predates the field and is adopted.
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"current":{"label":"old"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(legacy, "x/v1", &snap{Label: "new"}); err != nil {
		t.Fatal(err)
	}
}

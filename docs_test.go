package dtdctcp

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The prose documents may only name what is there. benchmarks/README.md
// is the ledger's own and is not held to this.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	inlineCode  = regexp.MustCompile("`([^`\n]+)`")
	bareFile    = regexp.MustCompile(`^[\w.-]+\.(json|txt|md)$`)
	citation    = regexp.MustCompile("`([^`\n]+)`\\s+on\\s+`([^`\n]+)`")
)

// readDoc returns a document without its fenced blocks: those hold
// commands and sample output, where a file name is often one the command
// writes.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return fencedBlock.ReplaceAllString(string(raw), "")
}

// TestDocsNameOnlyWhatExists: a backticked slash path under a top-level
// entry of the repository must exist, and so must a backticked bare
// *.json, *.txt or *.md name, somewhere in the tree.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	base := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		base[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		for _, m := range inlineCode.FindAllStringSubmatch(readDoc(t, doc), -1) {
			tok := m[1]
			switch first, _, isPath := strings.Cut(tok, "/"); {
			case strings.ContainsAny(tok, " *<>{}"):
				// a command line, a glob or a placeholder
			case isPath:
				if _, err := os.Stat(first); err != nil {
					break // not a path into this repository
				}
				if _, err := os.Stat(tok); err != nil {
					t.Errorf("%s names `%s`, which does not exist", doc, tok)
				}
			case bareFile.MatchString(tok) && !base[tok]:
				t.Errorf("%s names `%s`, and no file in the tree is called that", doc, tok)
			}
		}
	}
}

// TestDocsCiteLedgerMetrics: a performance figure is quoted as `metric`
// on `workload`, and both are names BENCHMARK.json declares — so the
// figure is one `go run ./benchmarks` regenerates.
func TestDocsCiteLedgerMetrics(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var decl struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range decl.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		metrics[m.Name] = true
	}
	for _, doc := range docFiles {
		for _, m := range citation.FindAllStringSubmatch(readDoc(t, doc), -1) {
			if !metrics[m[1]] || !workloads[m[2]] {
				t.Errorf("%s cites `%s` on `%s`: not a metric and a workload of BENCHMARK.json", doc, m[1], m[2])
			}
		}
	}
}

// TestReadmeListsEveryCommand: each directory under cmd/ has a row in
// README's "Command-line tools" table.
func TestReadmeListsEveryCommand(t *testing.T) {
	readme := readDoc(t, "README.md")
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		if row := "| `cmd/" + c.Name() + "` |"; c.IsDir() && !strings.Contains(readme, row) {
			t.Errorf("README's tool table has no row %q", row)
		}
	}
}

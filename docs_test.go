package dtdctcp

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	// goIdent is a backticked pkg.Name or pkg.Name.Member, Name exported;
	// a lower-case second part is a ledger metric such as sim.events.
	goIdent = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?(?:\(\))?$`)
)

// The documents whose Go identifiers must resolve. EXPERIMENTS.md is
// exempt: it is a diary, and its entries name what existed then.
var identDocs = []string{"README.md", "DESIGN.md"}

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
// *.json, *.txt or *.md name, somewhere in the tree. In README.md and
// DESIGN.md a backticked Go identifier of a module package must be
// declared (see resolves).
func TestDocsNameOnlyWhatExists(t *testing.T) {
	decls, aliases := moduleDecls(t)
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
			if slices.Contains(identDocs, doc) && !resolves(tok, decls, aliases) {
				t.Errorf("%s names `%s`, which the module does not declare", doc, tok)
			}
		}
	}
}

// resolves reports whether a backticked token that names a module
// package's pkg.Name or pkg.Name.Member is a top-level declaration of that
// package and, with a member, a field or method of that type. Other
// tokens, names outside the module (math.Max) among them, pass.
func resolves(tok string, decls map[string]map[string]map[string]bool, aliases map[string]string) bool {
	id := goIdent.FindStringSubmatch(tok)
	if id == nil || decls[id[1]] == nil {
		return true
	}
	pkg, name, member := id[1], id[2], id[3]
	members, ok := decls[pkg][name]
	if to, alias := aliases[pkg+"."+name]; alias && member != "" {
		target := strings.SplitN(to, ".", 2)
		members, ok = decls[target[0]][target[1]]
	}
	return ok && (member == "" || members[member])
}

// moduleDecls parses the non-test sources of every library package of the
// module and returns, by package name, its top-level names with the fields
// and methods of each type, plus its type aliases of other packages' types
// (alias → pkg.Name).
func moduleDecls(t *testing.T) (map[string]map[string]map[string]bool, map[string]string) {
	t.Helper()
	decls := map[string]map[string]map[string]bool{}
	aliases := map[string]string{}
	fset := token.NewFileSet()
	add := func(pkg, name, member string) {
		if decls[pkg] == nil {
			decls[pkg] = map[string]map[string]bool{}
		}
		if decls[pkg][name] == nil {
			decls[pkg][name] = map[string]bool{}
		}
		if member != "" {
			decls[pkg][name][member] = true
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkg == "main" {
			return nil
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(pkg, decl.Name.Name, "")
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ident, ok := recv.(*ast.Ident); ok {
					add(pkg, ident.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(pkg, n.Name, "")
						}
					case *ast.TypeSpec:
						add(pkg, spec.Name.Name, "")
						for _, member := range typeMembers(spec.Type) {
							add(pkg, spec.Name.Name, member)
						}
						if sel, ok := spec.Type.(*ast.SelectorExpr); ok && spec.Assign.IsValid() {
							aliases[pkg+"."+spec.Name.Name] = sel.X.(*ast.Ident).Name + "." + sel.Sel.Name
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, aliases
}

// typeMembers lists a struct's fields or an interface's methods, embedded
// ones by their type name.
func typeMembers(expr ast.Expr) []string {
	var fields *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		fields = expr.Fields
	case *ast.InterfaceType:
		fields = expr.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
		if len(f.Names) == 0 {
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch typ := typ.(type) {
			case *ast.Ident:
				out = append(out, typ.Name)
			case *ast.SelectorExpr:
				out = append(out, typ.Sel.Name)
			}
		}
	}
	return out
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

package dtdctcp

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the functions that no binary links and that stay: each
// line is a symbol as TestEveryFunctionIsReached spells it, then its
// reason.
const reachAllow = "scripts/reach_allow.txt"

// listedPackage is the part of `go list -json` the reachability check
// reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// TestEveryFunctionIsReached: every function and method of the module's
// non-test Go files is linked into some binary the module builds, or is
// named in scripts/reach_allow.txt with a reason. The binaries are every
// main package, built with inlining off so that a called function keeps
// its symbol; the linker drops whatever nothing reaches. An allow entry
// that is linked after all, or names nothing, fails too.
func TestEveryFunctionIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	pkgs := listPackages(t)
	var mains []string
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// linked holds the union of the library symbols; a main package's
	// functions are looked up in its own binary, since every binary spells
	// them main.*.
	linked := map[string]bool{}
	mainLinked := map[string]map[string]bool{}
	for _, path := range mains {
		name := filepath.Base(path)
		syms := textSymbols(t, filepath.Join(bin, name))
		mainLinked[path] = syms
		for s := range syms {
			linked[s] = true
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	allow := readAllow(t)
	declared := map[string]bool{}
	for _, p := range pkgs {
		for _, fn := range funcSymbols(t, root, p) {
			declared[fn.sym] = true
			reached := linked[fn.sym]
			if p.Name == "main" {
				reached = mainLinked[p.ImportPath][strings.Replace(fn.sym, p.ImportPath+".", "main.", 1)]
			}
			switch _, allowed := allow[fn.sym]; {
			case reached && allowed:
				t.Errorf("%s is linked: drop it from %s", fn.sym, reachAllow)
			case !reached && !allowed:
				t.Errorf("%s: %s is linked into no binary: delete it, give it a caller, or allow it in %s with a reason", fn.pos, fn.sym, reachAllow)
			}
		}
	}
	for _, sym := range sortedKeys(allow) {
		if !declared[sym] {
			t.Errorf("%s allows %s, which the module does not declare", reachAllow, sym)
		}
	}
}

// listPackages returns the module's packages, each with the files the
// default build selects.
func listPackages(t *testing.T) []listedPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// textSymbols returns the function symbols of one binary, each with its
// type arguments removed, so that runner.Map[go.shape.int] reads
// runner.Map.
func textSymbols(t *testing.T, bin string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	syms := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		// address, kind, then the symbol, which may hold spaces: a
		// generic's shape type reads go.shape.struct { F int }.
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			syms[stripTypeArgs(f[2])] = true
		}
	}
	return syms
}

// stripTypeArgs removes every bracketed type-argument list from a symbol.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type funcDecl struct {
	sym string
	pos token.Position
}

// funcSymbols lists a package's functions and methods by the symbol the
// linker gives them: path.F, path.T.M or path.(*T).M, each at its
// position relative to root. A package's init functions are left out;
// the linker numbers them.
func funcSymbols(t *testing.T, root string, p listedPackage) []funcDecl {
	t.Helper()
	fset := token.NewFileSet()
	var out []funcDecl
	for _, name := range p.GoFiles {
		path, err := filepath.Rel(root, filepath.Join(p.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			sym := p.ImportPath + "." + fn.Name.Name
			if fn.Recv != nil {
				sym = p.ImportPath + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			out = append(out, funcDecl{sym: sym, pos: fset.Position(fn.Pos())})
		}
	}
	return out
}

// receiverName spells a method's receiver as the linker does: T or (*T),
// without type parameters.
func receiverName(expr ast.Expr) string {
	star := false
	if s, ok := expr.(*ast.StarExpr); ok {
		star, expr = true, s.X
	}
	switch e := expr.(type) {
	case *ast.IndexExpr:
		expr = e.X
	case *ast.IndexListExpr:
		expr = e.X
	}
	name := expr.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// readAllow parses scripts/reach_allow.txt: a symbol and its reason on
// each line, # comments and blank lines skipped. An entry without a
// reason fails.
func readAllow(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", reachAllow, i+1, sym)
		}
		if _, dup := allow[sym]; dup {
			t.Errorf("%s:%d: %s is listed twice", reachAllow, i+1, sym)
		}
		allow[sym] = strings.TrimSpace(reason)
	}
	return allow
}

// sortedKeys is for stable failure output.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Dir is the package's source directory.
	Dir string
	// Fset resolves positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, build-tag filtered the same
	// way `go build` would filter them.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo records the type-checker's per-expression results.
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
}

// Load enumerates the packages matching the go-list patterns (relative to
// dir; empty dir means the current directory), parses their non-test files
// and type-checks them against source — no compiled export data and no
// network access are required. Test files are deliberately out of scope:
// tests may use wall clocks and ad-hoc randomness freely.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	// The source importer type-checks dependencies from source and caches
	// them, so sharing one instance across packages loads each dependency
	// once.
	imp := importer.ForCompiler(fset, "source", nil)

	var pkgs []*Package
	for _, lp := range listed {
		if lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]*ast.File, 0, len(lp.GoFiles))
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", path, err)
			}
			files = append(files, f)
		}
		info := newTypesInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", lp.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			Dir:       lp.Dir,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return pkgs, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

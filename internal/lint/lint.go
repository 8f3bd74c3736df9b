// Package lint implements dtlint, the repository's custom static-analysis
// suite. The simulator's headline claims are only reproducible when every
// run is a pure function of its seed; dtlint turns that discipline — and a
// few neighbouring correctness rules — from code-review folklore into
// mechanically checked invariants.
//
// The suite ships six analyzers (see their Doc strings and README.md),
// each a syntax/type-level pass over a package's files:
//
//	nondeterm  — wall-clock time and ambient randomness in simulator code
//	maporder   — map iteration on event-scheduling / packet-ordering paths
//	floatcmp   — exact float equality in the numeric analysis packages
//	simtime    — raw numeric literals materializing as sim.Time
//	hotalloc   — no allocation-inducing constructs in //dtlint:hotpath functions
//	soloengine — no goroutines, channel ops, or global writes in simulator code
//
// Each stays because it catches a class of defect that no runtime test
// does; README.md's leave-one-out table names the class. Packet leaks are
// a runtime check instead (netsim.Network.LivePackets after a drained run).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf) but is built on the standard library alone:
// packages are enumerated with `go list -json` and type-checked with
// go/types using the source importer, so the tool works offline with no
// third-party dependencies.
//
// A finding can be suppressed — with a mandatory justification — by an
// annotation on the offending line or the line directly above it:
//
//	//dtlint:allow nondeterm: the one seeded root source
//
// An annotation without a reason suppresses nothing and is itself a
// diagnostic. Run the suite with `go run ./cmd/dtlint ./...`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //dtlint:allow
	// annotations.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Applies filters the type-checked packages; nil means every package.
	Applies func(pkg *types.Package) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset resolves token positions for every file of the pass.
	Fset *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression annotations.
	TypesInfo *types.Info

	allow allowIndex
	diags *[]Diagnostic
	hot   *hotIndex
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that fired.
	Analyzer string
	// Message explains the finding and the expected fix.
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos unless a //dtlint:allow annotation for
// this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.allows(position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full dtlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NonDeterm, MapOrder, FloatCmp, SimTime,
		HotAlloc, SoloEngine,
	}
}

// Run applies the analyzers to the loaded packages and returns the merged
// findings sorted by position. Malformed //dtlint:allow annotations —
// missing a reason, naming no (or an unknown) analyzer — are reported as
// framework diagnostics under the "allow" name regardless of which
// analyzers run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow, allowDiags := buildAllowIndex(pkg.Fset, pkg.Files)
		diags = append(diags, allowDiags...)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Types) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				allow:     allow,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// simScope is the one scope of the determinism analyzers — nondeterm,
// maporder and soloengine: a package under dtdctcp/internal/ that is
// the event kernel or imports it directly, which is the code that runs
// inside event handlers. It reads the import graph, so a new simulator
// package is in scope without an edit here.
func simScope(pkg *types.Package) bool {
	return strings.HasPrefix(pkg.Path(), "dtdctcp/internal/") && simKernel(pkg) != nil
}

// appliesTo builds an Applies filter matching the given import paths and
// anything below them.
func appliesTo(paths ...string) func(*types.Package) bool {
	return func(pkg *types.Package) bool {
		p := pkg.Path()
		for _, q := range paths {
			if p == q || strings.HasPrefix(p, q+"/") {
				return true
			}
		}
		return false
	}
}

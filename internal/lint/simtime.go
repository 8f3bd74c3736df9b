package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

const simPath = "dtdctcp/internal/sim"

// SimTime flags raw integer or float literals that materialize as
// sim.Time. A bare literal hides its unit (nanoseconds) and its intent;
// instants and offsets must be built from sim.FromDuration, Time
// arithmetic, or the named constants (sim.TimeZero, sim.TimeNever). The
// literal 0 is exempt as the unambiguous zero value, and the declarations
// of named constants are themselves exempt.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "flag raw numeric literals used where sim.Time is expected",
	Run:  runSimTime,
}

func runSimTime(pass *Pass) error {
	kernel := simKernel(pass.Pkg)
	if kernel == nil {
		return nil // package neither is nor imports the sim kernel
	}
	simTime := kernel.Scope().Lookup("Time").Type()
	for _, f := range pass.Files {
		constDecls := constDeclRanges(f)
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || (lit.Kind != token.INT && lit.Kind != token.FLOAT) {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || !types.Identical(tv.Type, simTime) {
				return true
			}
			if tv.Value != nil && constant.Sign(tv.Value) == 0 {
				return true // the zero value is unambiguous
			}
			for _, r := range constDecls {
				if lit.Pos() >= r.start && lit.Pos() < r.end {
					return true // defining a named constant is the fix, not the bug
				}
			}
			pass.Reportf(lit.Pos(),
				"raw literal %s used as sim.Time; build instants from sim.FromDuration, Time arithmetic, or a named constant", lit.Value)
			return true
		})
	}
	return nil
}

// simKernel returns the sim kernel as the package sees it: the package
// itself when it is the kernel, the kernel it imports directly, or nil.
func simKernel(pkg *types.Package) *types.Package {
	if pkg.Path() == simPath {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == simPath {
			return imp
		}
	}
	return nil
}

type posRange struct{ start, end token.Pos }

func constDeclRanges(f *ast.File) []posRange {
	var out []posRange
	ast.Inspect(f, func(n ast.Node) bool {
		if gd, ok := n.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			out = append(out, posRange{gd.Pos(), gd.End()})
		}
		return true
	})
	return out
}

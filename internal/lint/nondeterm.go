package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NonDeterm forbids the two ambient sources of nondeterminism in simulator
// code: the wall clock (time.Now, time.Since, time.Until) and
// process-global or locally constructed random sources. All virtual time
// must come from Engine.Now and all randomness from Engine.Rand (or a
// *rand.Rand injected from it), so that one seed governs the whole run.
var NonDeterm = &Analyzer{
	Name:    "nondeterm",
	Doc:     "forbid wall-clock reads and ambient/local math/rand sources in simulator code",
	Applies: simScope,
	Run:     runNonDeterm,
}

func runNonDeterm(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock and breaks run-for-run determinism; use Engine.Now virtual time", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(sel.Pos(),
						"%s.%s constructs a private random source; draw from Engine.Rand or an injected *rand.Rand so one seed governs the run",
						ident.Name, fn.Name())
				} else {
					pass.Reportf(sel.Pos(),
						"%s.%s uses the process-global random source, which is shared mutable state; draw from Engine.Rand or an injected *rand.Rand",
						ident.Name, fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

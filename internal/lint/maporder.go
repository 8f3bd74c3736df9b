package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over maps in the packages that schedule events or
// order packets. Go randomizes map iteration order per run; any map range
// whose body's effects depend on visit order silently leaks that
// randomness into simulation results, defeating seeded reproducibility.
//
// The canonical fix — collect the keys, sort them, iterate the slice — is
// recognized and not flagged: a range whose body only appends the key to a
// slice that the same function later passes to a sort call is exempt.
// Loops that are order-insensitive for deeper reasons carry a
// //dtlint:allow maporder annotation with the proof.
var MapOrder = &Analyzer{
	Name:    "maporder",
	Doc:     "flag map iteration on event-scheduling and packet-ordering paths",
	Applies: simScope,
	Run:     runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorted := sortedSlices(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if isKeyCollection(rs, sorted) {
					return true
				}
				pass.Reportf(rs.For,
					"map iteration order is randomized per run and can leak into event/packet ordering; iterate sorted keys or annotate with a proof of order-insensitivity")
				return true
			})
		}
	}
	return nil
}

// sortedSlices returns the names of slice variables the function passes to
// a sort.* or slices.Sort* call.
func sortedSlices(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgIdent, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "sort", "slices":
			if arg, ok := call.Args[0].(*ast.Ident); ok {
				out[arg.Name] = true
			}
		}
		return true
	})
	return out
}

// isKeyCollection reports whether the range body is exactly
// `keys = append(keys, k)` for a slice that is subsequently sorted.
func isKeyCollection(rs *ast.RangeStmt, sorted map[string]bool) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok || !sorted[dst.Name] {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	recv, ok := call.Args[0].(*ast.Ident)
	arg, ok2 := call.Args[1].(*ast.Ident)
	return ok && ok2 && recv.Name == dst.Name && arg.Name == key.Name
}

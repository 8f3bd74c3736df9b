package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetFlow is a forward taint analysis over the function CFG: values
// derived from nondeterministic sources must never reach the engine's
// scheduling interface or exported result fields, or the run stops being
// a pure function of its seed.
//
// Taint sources:
//
//   - time.Now / time.Since (wall clock)
//   - the process-global math/rand functions and newly constructed
//     sources (rand.New…) — engine-injected *rand.Rand draws are clean
//   - channel receives (<-ch): goroutine scheduling order is ambient
//   - the key/value variables of a `range` over a map: Go randomizes
//     visit order, so per-iteration values are order-dependent
//
// Taint sinks:
//
//   - arguments of Engine.Schedule / ScheduleArg / After / AfterArg /
//     RunUntil / RunFor and Timer.Reset / ResetAt (matched by method name
//     on a receiver named Engine / Timer)
//   - assignments into exported struct fields (the run's published
//     results)
//
// Propagation is by assignment and expression composition; calls launder
// taint (their results are assumed clean — callees are checked in their
// own right), so the analysis stays intra-procedural. Order-insensitive
// folds over maps that feed a sink carry //dtlint:allow detflow with the
// proof, mirroring maporder.
var DetFlow = &Analyzer{
	Name:    "detflow",
	Doc:     "forbid nondeterministic values from reaching engine scheduling or exported result fields",
	Applies: simScope,
	Run:     runDetFlow,
}

const tainted fact = 1

func runDetFlow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDetFlow(pass, fd)
		}
	}
	return nil
}

func checkDetFlow(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	g := buildCFG(fd.Body)

	transfer := func(n ast.Node, f facts, report bool) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Sinks and nested sources on the RHS first.
			for _, rhs := range n.Rhs {
				visitTaintSinks(pass, rhs, f, report)
			}
			transferTaintAssign(pass, n, f, report)

		case *rangeHead:
			rs := n.stmt
			if t := info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					taintLHS(info, rs.Key, f)
					taintLHS(info, rs.Value, f)
					return
				}
			}
			// Deterministic ranges (slices, channels would be flagged at
			// the receive, integers): loop vars take the element taint of
			// the ranged expression.
			if exprTainted(info, rs.X, f) {
				taintLHS(info, rs.Key, f)
				taintLHS(info, rs.Value, f)
			} else {
				clearLHS(info, rs.Key, f)
				clearLHS(info, rs.Value, f)
			}

		case *deferRun:
			// Arguments were evaluated (and checked) at the defer site.

		default:
			visitTaintSinks(pass, n, f, report)
		}
	}

	join := func(a, b fact) fact {
		if a == tainted || b == tainted {
			return tainted
		}
		return 0
	}

	fa := &flowAnalysis{transfer: transfer, join: join}
	fa.run(g)
}

// transferTaintAssign propagates taint through an assignment, with
// strong updates for single-variable targets.
func transferTaintAssign(pass *Pass, as *ast.AssignStmt, f facts, report bool) {
	info := pass.TypesInfo
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			t := exprTainted(info, as.Rhs[i], f)
			// Compound assignment (+=, |=, …) folds the previous value in.
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE && exprTainted(info, lhs, f) {
				t = true
			}
			assignTaint(pass, lhs, t, f, report)
		}
		return
	}
	// Tuple assignment from a call or comma-ok: a, b := f() / v, ok := <-ch.
	t := false
	for _, rhs := range as.Rhs {
		if exprTainted(info, rhs, f) {
			t = true
		}
	}
	for _, lhs := range as.Lhs {
		assignTaint(pass, lhs, t, f, report)
	}
}

// assignTaint applies taint to an assignment target: identifiers get
// strong updates; stores into exported struct fields are sinks.
func assignTaint(pass *Pass, lhs ast.Expr, t bool, f facts, report bool) {
	info := pass.TypesInfo
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if v, ok := objOf(info, lhs).(*types.Var); ok {
			if t {
				f.set(v, tainted)
			} else {
				f.set(v, 0)
			}
		}
	case *ast.SelectorExpr:
		if v, ok := objOf(info, lhs.Sel).(*types.Var); ok && v.IsField() && ast.IsExported(lhs.Sel.Name) {
			if t && report {
				pass.Reportf(lhs.Pos(),
					"nondeterministic value stored in exported field %s: results must be a pure function of the seed; derive the value from engine state instead", lhs.Sel.Name)
			}
			return
		}
		// Unexported field: track by field object (weak but useful).
		if v, ok := objOf(info, lhs.Sel).(*types.Var); ok && v.IsField() {
			if t {
				f.set(v, tainted)
			} else {
				f.set(v, 0)
			}
		}
	}
}

func taintLHS(info *types.Info, e ast.Expr, f facts) {
	if e == nil {
		return
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := objOf(info, id).(*types.Var); ok {
			f.set(v, tainted)
		}
	}
}

func clearLHS(info *types.Info, e ast.Expr, f facts) {
	if e == nil {
		return
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := objOf(info, id).(*types.Var); ok {
			f.set(v, 0)
		}
	}
}

// visitTaintSinks scans a node for scheduling calls whose arguments are
// tainted.
func visitTaintSinks(pass *Pass, n ast.Node, f facts, report bool) {
	info := pass.TypesInfo
	inspectShallow(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := schedulingSink(info, call)
		if recv == "" {
			return true
		}
		for _, arg := range call.Args {
			if exprTainted(info, arg, f) && report {
				pass.Reportf(arg.Pos(),
					"nondeterministic value reaches %s.%s: event timing must be a pure function of the seed; derive it from Engine.Now/Engine.Rand", recv, method)
			}
		}
		return true
	})
}

// schedulingSink matches engine/timer scheduling calls by method name and
// receiver type name; returns ("", "") for non-sinks.
func schedulingSink(info *types.Info, call *ast.CallExpr) (recvType, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	var sinkMethods = map[string]bool{
		"Schedule": true, "ScheduleArg": true, "After": true, "AfterArg": true,
		"RunUntil": true, "RunFor": true, "Reset": true, "ResetAt": true,
	}
	if !sinkMethods[sel.Sel.Name] {
		return "", ""
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	name := named.Obj().Name()
	if name != "Engine" && name != "Timer" {
		return "", ""
	}
	return name, sel.Sel.Name
}

// exprTainted reports whether evaluating e yields a taint-carrying value
// under the current facts.
func exprTainted(info *types.Info, e ast.Expr, f facts) bool {
	if e == nil {
		return false
	}
	found := false
	inspectShallow(e, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if v, ok := objOf(info, m).(*types.Var); ok && f.get(v) == tainted {
				found = true
			}
		case *ast.SelectorExpr:
			// Field read on a tainted struct, or tainted tracked field.
			if v, ok := objOf(info, m.Sel).(*types.Var); ok && v.IsField() && f.get(v) == tainted {
				found = true
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				found = true // channel receive: goroutine result
			}
		case *ast.CallExpr:
			if nondetSourceCall(info, m) {
				found = true
				return false
			}
			// Ordinary calls launder taint: do not descend into the
			// callee, but arguments feeding the call were already
			// checked as sinks; keep scanning them for sources.
		}
		return true
	})
	return found
}

// nondetSourceCall matches the ambient-entropy calls: time.Now,
// time.Since, and anything in the process-global math/rand API.
func nondetSourceCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "time":
		return sel.Sel.Name == "Now" || sel.Sel.Name == "Since"
	case "math/rand", "math/rand/v2":
		// Every package-level entry point draws from ambient state (or
		// constructs a source outside the engine's seed).
		return true
	}
	return false
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PktLife proves packet and event-handle lifecycle contracts on every
// control-flow path, via the forward dataflow framework:
//
//   - A packet obtained from AllocPacket must reach a terminal handoff —
//     FreePacket, any call taking the packet (Send, Receive, Deliver,
//     queue push…), a return, or an escape (stored into a field, slice,
//     map, channel, or captured by a closure) — on all paths to function
//     exit. A path that falls off the end still holding the packet leaks
//     it from the pool; an AllocPacket whose result is discarded leaks
//     immediately.
//   - An EventRef local must not be reused after Cancel: once r.Cancel()
//     runs, any further method call on r (including a second Cancel) is a
//     stale-handle bug until r is reassigned. The engine's generation
//     check turns such reuse into a silent no-op at runtime; the analyzer
//     surfaces it at compile time instead.
//
// The analysis is intra-procedural and name-based (AllocPacket /
// FreePacket / EventRef are matched by name, so fixtures and future pools
// with the same shape are covered). Deferred calls run at function exit
// with may-run semantics.
var PktLife = &Analyzer{
	Name:    "pktlife",
	Doc:     "prove AllocPacket reaches FreePacket or a handoff on all paths; no EventRef reuse after Cancel",
	Applies: simScope,
	Run:     runPktLife,
}

// Packet lifecycle facts.
const (
	pktLive     fact = 1 // allocated, not yet released on this path
	pktReleased fact = 2 // freed or handed off
	refArmed    fact = 3 // EventRef whose last assignment is visible
	refCancel   fact = 4 // EventRef after Cancel, before reassignment
)

func runPktLife(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPktLife(pass, fd)
		}
	}
	return nil
}

func checkPktLife(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	g := buildCFG(fd.Body)
	// allocSite remembers where each tracked packet variable was
	// allocated, for the leak report at exit.
	allocSite := make(map[types.Object]token.Pos)

	transfer := func(n ast.Node, f facts, report bool) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			transferAssign(pass, n, f, report, allocSite)
			return
		case *ast.DeferStmt:
			// Registration point: arguments are evaluated here but the
			// call's release effect applies at exit (deferRun below).
			return
		case *deferRun:
			releaseCallArgs(info, n.call, f)
			return
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				releaseUses(info, r, f)
			}
			return
		}
		// Generic nodes: expression statements, conditions, sends…
		inspectShallow(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				// Captured packets/refs escape into the closure.
				for _, v := range capturedVars(info, m, nil) {
					if f.get(v) == pktLive {
						f.set(v, pktReleased)
					}
				}
				return false
			case *ast.CallExpr:
				checkRefCall(pass, m, f, report)
				if isAllocPacketCall(m) {
					// Result used as a subexpression (argument, etc.):
					// immediate handoff, nothing to track. A bare
					// expression statement discards the packet — leak.
					if report && isDiscarded(n, m) {
						pass.Reportf(m.Pos(),
							"AllocPacket result discarded: the packet leaks from the pool; assign it and Send or FreePacket it")
					}
					return true
				}
				releaseCallArgs(info, m, f)
			case *ast.SendStmt:
				releaseUses(info, m.Value, f)
			}
			return true
		})
	}

	join := func(a, b fact) fact {
		// Packet facts: live wins (a leak on any path is a leak).
		// Ref facts: cancelled wins (reuse on any path is a reuse).
		switch {
		case a == pktLive || b == pktLive:
			return pktLive
		case a == pktReleased || b == pktReleased:
			return pktReleased
		case a == refCancel || b == refCancel:
			return refCancel
		case a == refArmed || b == refArmed:
			return refArmed
		}
		return 0
	}

	fa := &flowAnalysis{transfer: transfer, join: join}
	exit := fa.run(g)
	for o, v := range exit {
		if v == pktLive {
			pass.Reportf(allocSite[o],
				"packet %s can reach function exit without FreePacket or a handoff: it leaks from the pool on that path", o.Name())
		}
	}
}

// transferAssign tracks allocation (x := AllocPacket()), release-by-alias
// (y = x), overwrite-while-live, and EventRef reassignment.
func transferAssign(pass *Pass, as *ast.AssignStmt, f facts, report bool, allocSite map[types.Object]token.Pos) {
	info := pass.TypesInfo
	// RHS first: uses of tracked variables release them; calls checked.
	for _, rhs := range as.Rhs {
		if call, ok := rhs.(*ast.CallExpr); ok && isAllocPacketCall(call) {
			continue // handled with its LHS below
		}
		inspectShallow(rhs, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				for _, v := range capturedVars(info, m, nil) {
					if f.get(v) == pktLive {
						f.set(v, pktReleased)
					}
				}
				return false
			case *ast.CallExpr:
				checkRefCall(pass, m, f, report)
				releaseCallArgs(info, m, f)
			}
			return true
		})
	}
	// A tracked variable appearing as a bare RHS value is aliased or
	// stored somewhere: handoff.
	for _, rhs := range as.Rhs {
		releaseUses(info, rhs, f)
	}

	if len(as.Lhs) != len(as.Rhs) {
		// Tuple assignment from one call: any tracked LHS is clobbered.
		for _, lhs := range as.Lhs {
			clobberLHS(pass, lhs, f, report, allocSite)
		}
		return
	}
	for i, lhs := range as.Lhs {
		call, isAlloc := as.Rhs[i].(*ast.CallExpr)
		if isAlloc && isAllocPacketCall(call) {
			v := localVar(info, lhs)
			if v == nil {
				// Blank identifier or direct store into a structure:
				// blank discards (leak), a structure store escapes.
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" && report {
					pass.Reportf(call.Pos(),
						"AllocPacket result assigned to _: the packet leaks from the pool")
				}
				continue
			}
			if report && f.get(v) == pktLive {
				pass.Reportf(call.Pos(),
					"packet %s overwritten while still live: the previous packet leaks from the pool", v.Name())
			}
			f.set(v, pktLive)
			allocSite[v] = call.Pos()
			continue
		}
		clobberLHS(pass, lhs, f, report, allocSite)
	}
}

// clobberLHS applies an ordinary assignment's effect on a tracked LHS:
// overwriting a live packet leaks it; reassigning an EventRef clears the
// cancelled state.
func clobberLHS(pass *Pass, lhs ast.Expr, f facts, report bool, allocSite map[types.Object]token.Pos) {
	v := trackableVar(pass.TypesInfo, lhs)
	if v == nil {
		return
	}
	switch f.get(v) {
	case pktLive:
		if report {
			pass.Reportf(lhs.Pos(),
				"packet %s overwritten while still live: the previous packet leaks from the pool", v.Name())
		}
		f.set(v, 0)
	case refCancel, refArmed:
		f.set(v, refArmed)
	default:
		if isEventRefType(pass.TypesInfo.TypeOf(lhs)) {
			f.set(v, refArmed)
		}
	}
}

// checkRefCall handles method calls on tracked EventRef variables:
// Cancel transitions to the cancelled state; any call on a cancelled ref
// is a reuse.
func checkRefCall(pass *Pass, call *ast.CallExpr, f facts, report bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	v := trackableVar(pass.TypesInfo, sel.X)
	if v == nil || !isEventRefType(pass.TypesInfo.TypeOf(sel.X)) {
		return
	}
	if f.get(v) == refCancel {
		if report {
			pass.Reportf(call.Pos(),
				"%s.%s called after Cancel: the handle is stale (a generation-checked no-op at best); reassign the ref before reuse", v.Name(), sel.Sel.Name)
		}
		return
	}
	if sel.Sel.Name == "Cancel" {
		f.set(v, refCancel)
	}
}

// releaseCallArgs marks every tracked packet passed to a call as handed
// off (FreePacket, Send, Deliver, pushes — any callee takes ownership).
func releaseCallArgs(info *types.Info, call *ast.CallExpr, f facts) {
	for _, arg := range call.Args {
		releaseUses(info, arg, f)
	}
}

// releaseUses releases every tracked live packet referenced in e.
func releaseUses(info *types.Info, e ast.Expr, f facts) {
	if e == nil {
		return
	}
	inspectShallow(e, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			for _, v := range capturedVars(info, lit, nil) {
				if f.get(v) == pktLive {
					f.set(v, pktReleased)
				}
			}
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := objOf(info, id).(*types.Var); ok && f.get(v) == pktLive {
			f.set(v, pktReleased)
		}
		return true
	})
}

// trackableVar resolves an expression to a trackable variable: a plain
// local identifier, or a field selector on a local identifier (p.txRef),
// keyed by the field object — the usual "one receiver per function"
// approximation.
func trackableVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		return localVar(info, e)
	case *ast.SelectorExpr:
		if _, ok := e.X.(*ast.Ident); !ok {
			return nil
		}
		if v, ok := objOf(info, e.Sel).(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// isAllocPacketCall matches n.AllocPacket() / network.AllocPacket() by
// method name.
func isAllocPacketCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "AllocPacket"
	case *ast.Ident:
		return fun.Name == "AllocPacket"
	}
	return false
}

// isDiscarded reports whether the call is the whole expression statement
// (its result value is dropped on the floor).
func isDiscarded(stmt ast.Node, call *ast.CallExpr) bool {
	es, ok := stmt.(*ast.ExprStmt)
	return ok && es.X == call
}

// isEventRefType matches the sim.EventRef named type (and same-named
// fixture types) by name.
func isEventRefType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "EventRef"
}

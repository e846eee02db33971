package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TxOwnership enforces the TX-ownership contract (mac and net80211
// package docs): a frame handed to a MAC's Enqueue — mac.DCF, the baseline
// mac.Aloha and mac.TDMA, or the net80211.MAC interface that send paths
// call through — belongs to the MAC
// until the MSDU is delivered or dropped — the MAC mutates and
// retransmits from that storage in place. Send paths draw frames from the
// per-node txPool (or hand the MAC a Clone); fresh frame literals and
// constructors defeat the pooled 0-alloc path, and touching a frame after
// the commit-on-accept hand-off races the MAC's in-place mutation.
var TxOwnership = &Analyzer{
	Name: "txownership",
	Doc: "flag frames passed to a MAC's Enqueue that are not drawn from a txPool " +
		"slot (or Cloned), and uses of a frame after the hand-off",
	Run: runTxOwnership,
}

func runTxOwnership(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			var viewParam types.Object
			if p := rxHandlerParam(pass, fn.Type, fn.Name.Name); p != nil {
				viewParam = pass.TypesInfo.Defs[p]
			}
			checkEnqueues(pass, fn.Body, viewParam)
			return true
		})
	}
	return nil
}

// enqueueReceivers are the types whose Enqueue takes frame ownership.
var enqueueReceivers = [][2]string{{"mac", "DCF"}, {"mac", "Aloha"}, {"mac", "TDMA"}, {"net80211", "MAC"}}

// macEnqueue returns the frame argument if call is Enqueue on one of the
// enqueueReceivers.
func macEnqueue(pass *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Enqueue" || len(call.Args) != 1 {
		return nil, false
	}
	t := pass.TypeOf(sel.X)
	for _, r := range enqueueReceivers {
		if IsNamed(t, r[0], r[1]) {
			return call.Args[0], true
		}
	}
	return nil, false
}

func checkEnqueues(pass *Pass, body *ast.BlockStmt, viewParam types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, ok := macEnqueue(pass, call)
		if !ok {
			return true
		}
		checkProvenance(pass, body, arg, viewParam)
		if root := rootIdentObj(pass, arg); root != nil {
			checkUseAfterHandoff(pass, body, call, root)
		}
		return true
	})
}

// checkProvenance flags definitely-bad frame sources: fresh literals,
// new(), frame.New* constructors, and delivered RX views. Unknown
// provenance (fields, parameters of non-handler functions, buffered
// clones) is accepted — the analyzer proves violations, not safety.
func checkProvenance(pass *Pass, body *ast.BlockStmt, arg ast.Expr, viewParam types.Object) {
	src := unparen(arg)
	// Chase a locally-defined variable to its single defining expression.
	if id, ok := src.(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			if obj == viewParam {
				pass.Reportf(arg.Pos(), "tx-ownership contract: enqueueing the delivered RX view; the MAC retains "+
					"the frame past the handler — Enqueue a Clone() or a txPool frame (see txownership)")
				return
			}
			if def := soleDefinition(pass, body, obj); def != nil {
				src = unparen(def)
			}
		}
	}
	switch e := src.(type) {
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return
		}
		switch x := unparen(e.X).(type) {
		case *ast.CompositeLit:
			pass.Reportf(arg.Pos(), "tx-ownership contract: enqueueing a fresh frame literal; TX frames are drawn "+
				"from the node's txPool so the MAC's in-place retransmit storage recycles (see txownership)")
		case *ast.SelectorExpr:
			_ = x // &slot.f — the pooled path
		}
	case *ast.CallExpr:
		fun := unparen(e.Fun)
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			if strings.HasPrefix(strings.ToLower(sel.Sel.Name), "clone") {
				return // explicit deep copy: ownership cleanly transfers
			}
			if id, ok := unparen(sel.X).(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok &&
					PackageBase(pn.Imported().Path()) == "frame" && strings.HasPrefix(sel.Sel.Name, "New") {
					pass.Reportf(arg.Pos(), "tx-ownership contract: enqueueing a fresh frame.%s frame; draw the "+
						"frame from the node's txPool instead of allocating per send (see txownership)", sel.Sel.Name)
				}
			}
		}
		if id, ok := fun.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == types.Universe.Lookup("new") {
			pass.Reportf(arg.Pos(), "tx-ownership contract: enqueueing a new()-allocated frame; draw it from the "+
				"node's txPool (see txownership)")
		}
	}
}

// soleDefinition returns the unique defining expression of a := local, or
// nil when the variable is reassigned (provenance unknown).
func soleDefinition(pass *Pass, body *ast.BlockStmt, obj types.Object) ast.Expr {
	var def ast.Expr
	assigns := 0
	ast.Inspect(body, func(n ast.Node) bool {
		asgn, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range asgn.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if pass.TypesInfo.Defs[id] == obj || pass.TypesInfo.Uses[id] == obj {
				assigns++
				if i < len(asgn.Rhs) {
					def = asgn.Rhs[i]
				}
			}
		}
		return true
	})
	if assigns != 1 {
		return nil
	}
	return def
}

// rootIdentObj returns the object of the identifier at the root of the
// enqueued expression: f itself, or slot in &slot.f.
func rootIdentObj(pass *Pass, arg ast.Expr) types.Object {
	e := unparen(arg)
	for {
		switch x := e.(type) {
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}

// checkUseAfterHandoff flags uses of the enqueued frame's root variable in
// statements after the Enqueue call: once the MAC accepts, the frame and
// its body are MAC-owned. The failure path — a branch whose condition is
// the negated Enqueue result — may still touch the frame, and reassigning
// the root (advancing to a new pool slot) starts a fresh ownership scope.
// The scan covers the statement list the Enqueue appears in, which is
// where the repo's commit-on-accept idioms live.
func checkUseAfterHandoff(pass *Pass, body *ast.BlockStmt, enq *ast.CallExpr, root types.Object) {
	stmts, idx := enclosingStmts(body, enq)
	if idx < 0 {
		return
	}
	flagUses := func(n ast.Node) {
		ast.Inspect(n, func(inner ast.Node) bool {
			if id, ok := inner.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == root {
				pass.Reportf(id.Pos(), "tx-ownership contract: %s was handed to the MAC's Enqueue above; after the "+
					"hand-off the MAC owns the frame and mutates it in place (see txownership)", id.Name)
			}
			return true
		})
	}
	// The result variable (ok := d.Enqueue(f)), when present, marks
	// failure-path branches; a success-tested `if d.Enqueue(f) { ... }`
	// makes its own body part of the after-hand-off region.
	var okObj types.Object
	switch s := stmts[idx].(type) {
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && len(s.Lhs) == 1 && unparen(s.Rhs[0]) == enq {
			if id, ok := unparen(s.Lhs[0]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					okObj = obj
				} else {
					okObj = pass.TypesInfo.Uses[id]
				}
			}
		}
	case *ast.IfStmt:
		if unparen(s.Cond) == enq {
			flagUses(s.Body) // success branch: the MAC holds the frame here
		}
	}
	for _, s := range stmts[idx+1:] {
		if ifs, ok := s.(*ast.IfStmt); ok && isFailureBranch(pass, ifs.Cond, okObj) {
			continue // the refusal path legitimately reuses the frame
		}
		if asgn, ok := s.(*ast.AssignStmt); ok {
			rebound := false
			for _, lhs := range asgn.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == root {
					rebound = true
				}
			}
			if rebound {
				return // root rebound to a new frame
			}
		}
		flagUses(s)
	}
}

// enclosingStmts returns the innermost statement list containing target
// and the index of the containing statement.
func enclosingStmts(body *ast.BlockStmt, target ast.Node) ([]ast.Stmt, int) {
	var bestList []ast.Stmt
	bestIdx := -1
	bestSpan := token.Pos(1) << 62
	consider := func(list []ast.Stmt) {
		for i, s := range list {
			if s.Pos() <= target.Pos() && target.End() <= s.End() && s.End()-s.Pos() < bestSpan {
				bestList, bestIdx, bestSpan = list, i, s.End()-s.Pos()
			}
		}
	}
	consider(body.List)
	ast.Inspect(body, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			consider(b.List)
		case *ast.CaseClause:
			consider(b.Body)
		case *ast.CommClause:
			consider(b.Body)
		}
		return true
	})
	return bestList, bestIdx
}

// isFailureBranch matches `if !ok`, `if ok == false` and, when the call
// result is tested inline, `if !d.Enqueue(f)`.
func isFailureBranch(pass *Pass, cond ast.Expr, okObj types.Object) bool {
	switch c := unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op != token.NOT {
			return false
		}
		if id, ok := unparen(c.X).(*ast.Ident); ok {
			return okObj != nil && pass.TypesInfo.Uses[id] == okObj
		}
		if call, ok := unparen(c.X).(*ast.CallExpr); ok {
			_, isEnq := macEnqueue(pass, call)
			return isEnq
		}
	case *ast.BinaryExpr:
		if c.Op != token.EQL {
			return false
		}
		if id, ok := unparen(c.X).(*ast.Ident); ok && okObj != nil && pass.TypesInfo.Uses[id] == okObj {
			if lit, ok := unparen(c.Y).(*ast.Ident); ok && lit.Name == "false" {
				return true
			}
		}
	}
	return false
}

// The walfirst analyzer: durability before visibility. Collection
// mutation is managed — the raw object.Collection mutators and the
// engine's appliers may only be reached through the sanctioned paths,
// and in the engine's mutation entry points the WAL append must
// dominate the in-memory apply (every path that applies has logged
// first). Recovery (replayLocked) is exempt: its records came FROM the
// WAL.
package lint

import (
	"go/ast"

	"github.com/yask-engine/yask/internal/lint/analysis"
)

// WalFirst is the managed-mutation / WAL-ordering analyzer.
var WalFirst = &analysis.Analyzer{
	Name: "walfirst",
	Doc:  "requires collection mutations to flow through the managed appliers, WAL append first",
	Run:  runWalFirst,
}

// walMutators are the raw storage mutators (module-relative FuncKeys).
var walMutators = map[string]bool{
	"/internal/object.Collection.Append":    true,
	"/internal/object.Collection.Tombstone": true,
}

// walMutatorCallers are the functions allowed to call the raw mutators:
// the engine's appliers.
var walMutatorCallers = map[string]bool{
	"/internal/core.Engine.applyInsertLocked": true,
	"/internal/core.Engine.applyRemoveLocked": true,
}

// walAppliers are the managed apply operations: inside internal/core
// they may only be invoked from the mutation entry points (where the
// dominance check runs), from recovery, or from each other.
var walAppliers = map[string]bool{
	"/internal/core.Engine.applyInsertLocked": true,
	"/internal/core.Engine.applyRemoveLocked": true,
}

// walEntryPoints are the engine mutation entry points: applier calls
// here must be dominated by a WAL append (or the nil-durability guard).
var walEntryPoints = map[string]bool{
	"/internal/core.Engine.Insert": true,
	"/internal/core.Engine.Remove": true,
}

// walReplayers re-apply records read from the WAL; logging them again
// would double them, so they call appliers without logging.
var walReplayers = map[string]bool{
	"/internal/core.Engine.replayLocked": true,
}

// walLoggers are the calls that count as "the WAL append happened".
var walLoggers = map[string]bool{
	"/internal/core.durability.logInsert": true,
	"/internal/core.durability.logRemove": true,
	"/internal/wal.Log.Append":            true,
}

func runWalFirst(pass *analysis.Pass) error {
	inCore := pass.Pkg.Path() == pass.Module+"/internal/core"
	inObject := pass.Pkg.Path() == pass.Module+"/internal/object"

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := analysis.DeclKey(pass.Pkg.Path(), fd)
			relKey := moduleRel(key, pass.Module)

			// Rule A: raw mutator calls only from the allowlist (and from
			// the object package itself, which owns the type).
			if !inObject && !walMutatorCallers[relKey] {
				reportCalls(pass, fd, walMutators,
					"raw %s mutates the collection outside the managed appliers; route mutations through Engine.Insert/Remove")
			}

			// Rule B: inside the engine, appliers are reachable only from
			// the entry points, recovery, or other appliers.
			if inCore && !walEntryPoints[relKey] && !walReplayers[relKey] && !walMutatorCallers[relKey] {
				reportCalls(pass, fd, walAppliers,
					"call to applier %s outside the managed mutation entry points (Engine.Insert/Remove) and recovery")
			}

			// Rule C: in the entry points, every applier call must be
			// dominated by a WAL append.
			if inCore && walEntryPoints[relKey] {
				w := &walChecker{pass: pass}
				w.evalStmts(fd.Body.List, false)
			}
		}
	}
	return nil
}

// reportCalls flags every call in fd whose callee's module-relative
// FuncKey is in deny.
func reportCalls(pass *analysis.Pass, fd *ast.FuncDecl, deny map[string]bool, format string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeOf(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if rel := moduleRel(analysis.FuncKey(fn), pass.Module); deny[rel] {
			pass.Reportf(call.Pos(), format, fn.FullName())
		}
		return true
	})
}

// walChecker is the dominance evaluator: a linear abstract
// interpretation over an entry point's statements tracking one bit —
// has a WAL append happened on every path reaching this program point?
type walChecker struct {
	pass *analysis.Pass
}

// evalStmts processes stmts in order with the incoming logged state and
// returns the state after the list.
func (w *walChecker) evalStmts(stmts []ast.Stmt, logged bool) bool {
	for _, s := range stmts {
		logged = w.evalStmt(s, logged)
	}
	return logged
}

func (w *walChecker) evalStmt(s ast.Stmt, logged bool) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.evalStmts(s.List, logged)
	case *ast.IfStmt:
		if s.Init != nil {
			logged = w.evalStmt(s.Init, logged)
		}
		w.checkApplies(s.Cond, logged)
		bodyLogged := w.evalStmts(s.Body.List, logged)
		if isDurGuard(s.Cond) && s.Else == nil && bodyLogged {
			// `if e.dur != nil { log … }`: on the then-path the append
			// happened; on the else-path the engine is memory-only and has
			// no WAL to order against. Either way the apply may proceed.
			return true
		}
		elseLogged := logged
		if s.Else != nil {
			elseLogged = w.evalStmt(s.Else, logged)
		} else {
			// No else: the if may be skipped entirely.
			elseLogged = logged
		}
		return bodyLogged && elseLogged
	case *ast.ForStmt:
		if s.Init != nil {
			logged = w.evalStmt(s.Init, logged)
		}
		w.checkApplies(s.Cond, logged)
		w.evalStmts(s.Body.List, logged) // body may run zero times
		return logged
	case *ast.RangeStmt:
		w.checkApplies(s.X, logged)
		w.evalStmts(s.Body.List, logged)
		return logged
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Conservative: check applies inside with the incoming state;
		// assume no branch is guaranteed to log.
		w.checkApplies(s, logged)
		return logged
	default:
		w.checkApplies(s, logged)
		if containsLoggerCall(w.pass, s) {
			return true
		}
		return logged
	}
}

// checkApplies reports every applier or raw-mutator call under n that
// is not yet dominated by a log.
func (w *walChecker) checkApplies(n ast.Node, logged bool) {
	if n == nil || logged {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeOf(w.pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		rel := moduleRel(analysis.FuncKey(fn), w.pass.Module)
		if walAppliers[rel] || walMutators[rel] {
			w.pass.Reportf(call.Pos(), "%s is not dominated by a WAL append: log the mutation before applying it", fn.FullName())
		}
		return true
	})
}

// containsLoggerCall reports whether any call under n is a WAL logger.
func containsLoggerCall(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeOf(pass.TypesInfo, call)
		if fn != nil && walLoggers[moduleRel(analysis.FuncKey(fn), pass.Module)] {
			found = true
		}
		return true
	})
	return found
}

// isDurGuard recognizes the durability guard `<expr>.dur != nil` (or a
// bare `dur != nil`): inside it, logging is possible; without it the
// engine runs memory-only and has nothing to order against.
func isDurGuard(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op.String() != "!=" {
		return false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(y) {
		return namesDur(x)
	}
	if isNilIdent(x) {
		return namesDur(y)
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func namesDur(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "dur"
	case *ast.SelectorExpr:
		return e.Sel.Name == "dur"
	}
	return false
}

// moduleRel strips the module prefix off a FuncKey, returning a key
// like "/internal/core.Engine.Insert"; keys outside the module return
// "" (matching nothing).
func moduleRel(key, module string) string {
	if len(key) > len(module) && key[:len(module)] == module && key[len(module)] == '/' {
		return key[len(module):]
	}
	return ""
}

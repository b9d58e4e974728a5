// The hotpath analyzer: functions annotated //yask:hotpath are warm
// query paths that must not allocate per operation. The
// TestTopKAllocationGuard tests of internal/settree and internal/core
// assert the dynamic property (0 allocs/op) after the fact; this
// analyzer makes the usual ways of breaking it a build failure, at the
// construct level:
//
//   - make / new / slice, map and escaping composite literals
//   - growing append
//   - map writes
//   - string concatenation and string<->[]byte/[]rune conversions
//   - closures that capture variables (unless passed straight into a
//     //yask:hotpath function, whose contract is not to retain them)
//   - go statements
//   - calls to module functions not themselves annotated //yask:hotpath
//     (the transitive closure of a hot path must be hot), dynamic
//     dispatch, and calls into standard-library packages not on the
//     known-allocation-free allowlist
//
// Deliberate, amortized allocations (pooled scratch growth, the result
// buffer) carry //yask:allocok(reason) on the offending line.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/yask-engine/yask/internal/lint/analysis"
)

// Hotpath is the hot-path allocation analyzer.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "flags allocation-causing constructs inside //yask:hotpath functions",
	Run:  runHotpath,
}

// hotpathStdlibAllow are the standard-library packages hot paths may
// call freely: pure arithmetic and lock-free atomics, none of which
// allocate.
var hotpathStdlibAllow = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

func runHotpath(pass *analysis.Pass) error {
	pkgPath := pass.Pkg.Path()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Facts.Hotpath[analysis.DeclKey(pkgPath, fd)] {
				checkHotBody(pass, fd)
			}
		}
	}
	return nil
}

// checkHotBody walks one annotated function body, nested closures
// included.
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// Closures handed directly to an annotated module function are the
	// sanctioned callback pattern (BestFirstTopK, PrunedDFS): the driver
	// does not retain them, so they stay on the stack. Everything else
	// that captures state is assumed to allocate.
	calmClosures := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.CalleeOf(info, call); fn != nil && pass.Facts.Hotpath[analysis.FuncKey(fn)] {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					calmClosures[lit] = true
				}
			}
		}
		return true
	})
	// Composite literals reported through their enclosing &-expression
	// must not be reported twice.
	reportedLits := map[*ast.CompositeLit]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					reportedLits[lit] = true
					pass.Report(n.Pos(), "escaping composite literal (&T{...}) allocates")
				}
			}
		case *ast.CompositeLit:
			if reportedLits[n] {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Report(n.Pos(), "slice literal allocates")
			case *types.Map:
				pass.Report(n.Pos(), "map literal allocates")
			}
		case *ast.FuncLit:
			if !calmClosures[n] && capturesState(info, n) {
				pass.Report(n.Pos(), "closure captures variables and may be heap-allocated; pass it directly to a //yask:hotpath function or hoist it")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				pass.Report(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkMapWrite(pass, lhs)
			}
		case *ast.IncDecStmt:
			checkMapWrite(pass, n.X)
		case *ast.GoStmt:
			pass.Report(n.Pos(), "go statement allocates a goroutine")
		}
		return true
	})
}

// checkHotCall classifies one call expression inside a hot body.
func checkHotCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if analysis.IsTypeConversion(info, call) {
		checkHotConversion(pass, call)
		return
	}
	switch analysis.BuiltinOf(info, call) {
	case "append":
		pass.Report(call.Pos(), "append may grow its backing array")
		return
	case "make":
		pass.Report(call.Pos(), "make allocates")
		return
	case "new":
		pass.Report(call.Pos(), "new allocates")
		return
	case "print", "println":
		pass.Report(call.Pos(), "print/println allocate")
		return
	case "":
		// Not a builtin: classified below.
	default:
		return // len, cap, copy, delete, min, max, panic, …: free
	}
	fn := analysis.CalleeOf(info, call)
	if fn == nil {
		return // call of a func value: invoking it does not allocate
	}
	if analysis.RecvIsInterface(fn) {
		pass.Reportf(call.Pos(), "dynamic call to %s cannot be verified allocation-free", fn.Name())
		return
	}
	pkg := analysis.PkgOf(fn)
	if analysis.InModule(pkg, pass.Module) {
		if !pass.Facts.Hotpath[analysis.FuncKey(fn)] {
			pass.Reportf(call.Pos(), "call to %s, which is not annotated //yask:hotpath", fn.FullName())
		}
		return
	}
	if !hotpathStdlibAllow[pkg] {
		pass.Reportf(call.Pos(), "call into %s may allocate", pkg)
	}
}

// checkHotConversion flags the conversions that copy: string <->
// []byte/[]rune, and integer/rune to string.
func checkHotConversion(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if len(call.Args) != 1 {
		return
	}
	dst := info.TypeOf(call.Fun)
	src := info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	switch {
	case isString(dst) && !isString(src):
		pass.Report(call.Pos(), "conversion to string allocates")
	case isByteOrRuneSlice(dst) && isString(src):
		pass.Report(call.Pos(), "conversion of string to slice allocates")
	}
}

func checkMapWrite(pass *analysis.Pass, lhs ast.Expr) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if _, isMap := pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); isMap {
		pass.Report(lhs.Pos(), "map write may allocate")
	}
}

// capturesState reports whether the func literal references any
// identifier declared outside itself (other than package-level ones):
// a capturing closure needs a heap-allocated environment when it
// escapes.
func capturesState(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == v.Pkg().Scope() || types.Universe.Lookup(id.Name) == obj {
			return true // package-level: no environment needed
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

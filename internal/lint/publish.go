// The publishdiscipline analyzer: epoch pointers are published, not
// poked. Every atomic.Pointer in the engine (the rtree publisher's
// state, the collection's live arrays)
// is an epoch pointer whose Store is a commit point with ordering
// obligations — readers must never observe a half-built state. Only the
// functions that implement the commit protocol may Store/Swap/CAS one;
// anyone else must build the new state and hand it to a publisher.
package lint

import (
	"go/ast"
	"go/types"

	"github.com/yask-engine/yask/internal/lint/analysis"
)

// PublishDiscipline is the epoch-pointer commit-site analyzer.
var PublishDiscipline = &analysis.Analyzer{
	Name: "publishdiscipline",
	Doc:  "restricts atomic.Pointer Store/Swap/CompareAndSwap to the sanctioned publish commit sites",
	Run:  runPublishDiscipline,
}

// publishWriters are the atomic.Pointer methods that publish a new
// epoch.
var publishWriters = map[string]bool{
	"Store":          true,
	"Swap":           true,
	"CompareAndSwap": true,
}

// publishCommitSites are the functions (module-relative FuncKeys)
// entitled to publish: the snapshot publisher's locked commit, and the
// storage-layer constructors and mutators that own their own epoch
// pointers.
var publishCommitSites = map[string]bool{
	"/internal/rtree.SnapshotPublisher.publishLocked": true,
	"/internal/rtree.NewMappedPublisher":              true,
	"/internal/object.NewCollection":                  true,
	"/internal/object.NewCollectionWithDead":          true,
	"/internal/object.Collection.Append":              true,
	"/internal/object.Collection.Tombstone":           true,
}

func runPublishDiscipline(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if publishCommitSites[moduleRel(analysis.DeclKey(pass.Pkg.Path(), fd), pass.Module)] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.CalleeOf(pass.TypesInfo, call)
				if fn == nil || !publishWriters[fn.Name()] || !isAtomicPointerMethod(fn) {
					return true
				}
				pass.Reportf(call.Pos(), "%s on an atomic.Pointer outside a publish commit site: build the state and publish it through SnapshotPublisher (or the owning constructor)", fn.Name())
				return true
			})
		}
	}
	return nil
}

// isAtomicPointerMethod reports whether fn is a method of
// sync/atomic.Pointer[T] (any instantiation).
func isAtomicPointerMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Pointer"
}

// The snapshotdiscipline analyzer: the query engine must drive every
// index through the index.Provider / index.Snapshot contract, never a
// concrete family. Concretely:
//
//   - internal/core (and any future query-routing package listed in
//     snapshotRestricted) may not import the concrete family packages
//     (settree, kcrtree, rtree) except in the files allowlisted
//     for construction, and may never type-assert an interface down to
//     a concrete family type;
//   - rtree.Tree mutators (Insert, Delete) may only be called from the
//     family packages that own the trees — everyone else goes through a
//     SnapshotPublisher or an index.Provider;
//   - restricted packages may not reach around the snapshot protocol
//     via the raw Tree()/Flat() escape-hatch accessors.
package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/yask-engine/yask/internal/lint/analysis"
)

// SnapshotDiscipline is the index-contract analyzer.
var SnapshotDiscipline = &analysis.Analyzer{
	Name: "snapshotdiscipline",
	Doc:  "keeps the query engine on the index.Provider/index.Snapshot contract, off concrete index families",
	Run:  runSnapshotDiscipline,
}

// snapshotRestricted are the module-relative packages that must stay
// backend-agnostic: the query processor today, the RPC router when the
// distributed tier lands.
var snapshotRestricted = []string{
	"/internal/core",
}

// snapshotFamilies are the concrete index family packages (module-
// relative).
var snapshotFamilies = []string{
	"/internal/settree",
	"/internal/kcrtree",
	"/internal/rtree",
}

// snapshotImportAllow lists, per file base name inside a restricted
// package, the family packages that file may import. engine.go is the
// construction site: it wires concrete builders into the backend and
// exposes the typed accessors. arena.go is the persistence
// counterpart: it rebuilds those same concrete indexes from mmap'd
// arena files at boot and serializes them at checkpoints. Every
// algorithm file stays on the contract.
var snapshotImportAllow = map[string][]string{
	"engine.go": {"/internal/settree", "/internal/kcrtree", "/internal/rtree"},
	"arena.go":  {"/internal/settree", "/internal/kcrtree", "/internal/rtree"},
}

// snapshotTreeMutators are the rtree.Tree methods that mutate: calling
// them outside a family package bypasses generation tracking and the
// publisher's staleness protocol.
var snapshotTreeMutators = map[string]bool{
	"Insert": true,
	"Delete": true,
}

// snapshotRawAccessors are the escape-hatch methods that surface a raw
// tree or arena from behind a publisher or index; restricted packages
// must acquire snapshots instead.
var snapshotRawAccessors = map[string]bool{
	"Tree": true,
	"Flat": true,
}

func runSnapshotDiscipline(pass *analysis.Pass) error {
	pkgPath := pass.Pkg.Path()
	restricted := hasModuleSuffix(pkgPath, pass.Module, snapshotRestricted)
	inFamily := hasModuleSuffix(pkgPath, pass.Module, snapshotFamilies)

	for _, f := range pass.Files {
		fileName := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if restricted {
			checkRestrictedImports(pass, f, fileName)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if restricted && n.Type != nil {
					checkFamilyAssert(pass, n.Type)
				}
			case *ast.TypeSwitchStmt:
				if restricted {
					for _, clause := range n.Body.List {
						cc, ok := clause.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, expr := range cc.List {
							checkFamilyAssert(pass, expr)
						}
					}
				}
			case *ast.CallExpr:
				fn := analysis.CalleeOf(pass.TypesInfo, n)
				if fn == nil {
					return true
				}
				key := analysis.FuncKey(fn)
				if !inFamily && key == pass.Module+"/internal/rtree.Tree.Insert" || !inFamily && key == pass.Module+"/internal/rtree.Tree.Delete" {
					pass.Reportf(n.Pos(), "direct rtree.Tree.%s outside the index families bypasses the publisher's generation protocol", fn.Name())
				}
				if restricted && snapshotRawAccessors[fn.Name()] && familyOwned(fn, pass.Module) && snapshotImportAllow[fileName] == nil {
					pass.Reportf(n.Pos(), "raw %s() access from %s: acquire an index.Snapshot instead", fn.Name(), pkgPath)
				}
			}
			return true
		})
	}
	return nil
}

// checkRestrictedImports flags family imports outside the per-file
// allowlist.
func checkRestrictedImports(pass *analysis.Pass, f *ast.File, fileName string) {
	allowed := snapshotImportAllow[fileName]
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		suffix := moduleSuffix(path, pass.Module, snapshotFamilies)
		if suffix == "" {
			continue
		}
		ok := false
		for _, a := range allowed {
			if a == suffix {
				ok = true
			}
		}
		if !ok {
			pass.Reportf(imp.Pos(), "%s must not import %s (only %s files on the construction allowlist may): drive indexes through internal/index",
				pass.Pkg.Path(), path, allowedFilesList())
		}
	}
}

// checkFamilyAssert flags a type assertion or type-switch case whose
// target type is declared in a family package.
func checkFamilyAssert(pass *analysis.Pass, typeExpr ast.Expr) {
	t := pass.TypesInfo.TypeOf(typeExpr)
	if t == nil {
		return
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	if hasModuleSuffix(named.Obj().Pkg().Path(), pass.Module, snapshotFamilies) {
		pass.Reportf(typeExpr.Pos(), "type assertion to concrete index type %s defeats the index.Snapshot contract", named.Obj().Name())
	}
}

// familyOwned reports whether fn's receiver (or fn itself) is declared
// in a family package.
func familyOwned(fn *types.Func, module string) bool {
	return hasModuleSuffix(analysis.PkgOf(fn), module, snapshotFamilies)
}

// hasModuleSuffix reports whether pkgPath is module+s for any suffix s.
func hasModuleSuffix(pkgPath, module string, suffixes []string) bool {
	return moduleSuffix(pkgPath, module, suffixes) != ""
}

// moduleSuffix returns the matching suffix, or "".
func moduleSuffix(pkgPath, module string, suffixes []string) string {
	for _, s := range suffixes {
		if pkgPath == module+s {
			return s
		}
	}
	return ""
}

func allowedFilesList() string {
	var names []string
	for name := range snapshotImportAllow {
		names = append(names, name)
	}
	if len(names) == 0 {
		return "none"
	}
	// Deterministic output for tests; the map is tiny.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ", ")
}

package lint

import (
	"testing"

	"github.com/yask-engine/yask/internal/lint/loader"
)

// TestModuleLintClean is the acceptance gate the CI lint job mirrors:
// the whole suite over the whole module, zero findings.
func TestModuleLintClean(t *testing.T) {
	diags, err := Run("../..", "./...")
	if err != nil {
		t.Fatalf("lint run failed: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestAnnotationsMeta validates the module's //yask: annotations
// themselves: every //yask:hotpath is attached to an existing function
// declaration (the facts collector reports floaters, and collecting a
// key from a FuncDecl is what guarantees the function exists), every
// //yask:allocok and //yask:allow carries a non-empty reason, and the
// hot-path index actually covers the engine's core walks.
func TestAnnotationsMeta(t *testing.T) {
	res, err := loader.Load(loader.Config{Dir: "../..", Tests: true}, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	facts, diags := collectFacts(res)
	for _, d := range diags {
		t.Errorf("dangling annotation: %s", d)
	}

	known := knownAnalyzers()
	for _, pkg := range res.Targets {
		files := pkg.AllFiles()
		src := pkg.Sources
		if pkg.XTest != nil {
			files = append(files, pkg.XTest.Files...)
			merged := map[string][]byte{}
			for k, v := range pkg.Sources {
				merged[k] = v
			}
			for k, v := range pkg.XTest.Sources {
				merged[k] = v
			}
			src = merged
		}
		ix := scanDirectives(res.Fset, files, src, known)
		for _, p := range ix.problems {
			t.Errorf("malformed directive: %s", p)
		}
	}

	// The annotation index must cover the engine's shared drivers and
	// per-family walks; an empty or hollowed-out index means the hotpath
	// analyzer is checking nothing.
	anchors := []string{
		testModule + "/internal/index.BestFirstTopK",
		testModule + "/internal/index.PrunedDFS",
		testModule + "/internal/index.SigScoreEntry",
		testModule + "/internal/pqueue.Queue.Push",
		testModule + "/internal/pqueue.Queue.Pop",
		testModule + "/internal/settree.Arena.TopK",
		testModule + "/internal/settree.Arena.CountBetter",
		testModule + "/internal/kcrtree.Arena.RankBounds",
		testModule + "/internal/score.Scorer.Score",
	}
	for _, key := range anchors {
		if !facts.Hotpath[key] {
			t.Errorf("expected //yask:hotpath on %s", key)
		}
	}
	if len(facts.Hotpath) < len(anchors) {
		t.Errorf("hot-path index suspiciously small: %d entries", len(facts.Hotpath))
	}
}

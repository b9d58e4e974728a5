//go:build !race

// The golden questions run on one goroutine, so the race detector has
// nothing to find in them; it would only make them six times slower.

package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// kwGoldenFile holds the keyword answers of kwGoldenQuestions as
// recorded from the bound-and-prune search that ranked every candidate
// by an exact CountBetter. A change that reorders or shortcuts the
// candidate evaluation must reproduce it byte for byte.
const kwGoldenFile = "testdata/keyword_golden.txt"

// kwGoldenQuestions calls fn for about 200 seeded keyword why-not
// questions: two tree shapes (n = 2,000 at fanout 8, four or more
// levels; n = 20k at fanout 64, three levels), |M| ∈ {1, 2, 3}, and
// λ ∈ {0.3, 0.5, 0.7} plus λ = 1 with MaxEdits 2. The missing objects
// are spread over the ranks below k, so R(M, q) − k runs from 1 to 9
// and a candidate has a range of ranks it may still win with.
func kwGoldenQuestions(t *testing.T, fn func(label string, e *Engine, q score.Query, missing []object.ID, opts KeywordOptions)) {
	t.Helper()
	scales := []struct {
		n, fanout int
		seed      int64
	}{{2000, 8, 91}, {20000, 64, 92}}
	configs := []KeywordOptions{{Lambda: 0.3}, {Lambda: 0.5}, {Lambda: 0.7}, {Lambda: 1, MaxEdits: 2}}
	const seeds = 8
	for _, sc := range scales {
		ds, err := dataset.Generate(dataset.DefaultConfig(sc.n, sc.seed))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(ds.Objects, Options{MaxEntries: sc.fanout})
		qs := dataset.Workload(ds, dataset.WorkloadConfig{
			Queries: seeds, Seed: sc.seed + 1, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
		})
		for si, q := range qs {
			stride := 1 + si%4
			for nm := 1; nm <= 3; nm++ {
				below := missingFromResult(e, q, 1+(nm-1)*stride)
				missing := make([]object.ID, 0, nm)
				for i := 0; i < len(below); i += stride {
					missing = append(missing, below[i])
				}
				for _, opts := range configs {
					label := fmt.Sprintf("n=%d fanout=%d q=%d m=%d lambda=%v maxEdits=%d",
						sc.n, sc.fanout, si, nm, opts.Lambda, opts.MaxEdits)
					fn(label, e, q, missing, opts)
				}
			}
		}
	}
}

// formatKeywordGolden renders every KeywordResult field that describes
// the answer, floats in their shortest exact form. The Candidates*
// counters describe the search, not the answer, and are left out.
func formatKeywordGolden(r KeywordResult) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	set := func(s vocab.KeywordSet) string {
		parts := make([]string, len(s))
		for i, kw := range s {
			parts[i] = strconv.Itoa(int(kw))
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	q := r.Refined
	return fmt.Sprintf("loc=(%s %s) doc=%s k=%d w=(%s %s) sim=%d penalty=%s dk=%d ddoc=%d before=%d after=%d added=%s removed=%s",
		f(q.Loc.X), f(q.Loc.Y), set(q.Doc), q.K, f(q.W.Ws), f(q.W.Wt), int(q.Sim),
		f(r.Penalty), r.DeltaK, r.DeltaDoc, r.RankBefore, r.RankAfter, set(r.Added), set(r.Removed))
}

// TestAdaptKeywordsGolden pins the keyword answers of kwGoldenQuestions
// byte for byte, and checks that each answer's result list is the
// refined query's top-k by full scan. Run with -update to rewrite the
// file, only for a change that is meant to move an answer.
func TestAdaptKeywordsGolden(t *testing.T) {
	var out strings.Builder
	kwGoldenQuestions(t, func(label string, e *Engine, q score.Query, missing []object.ID, opts KeywordOptions) {
		res, err := e.AdaptKeywords(q, missing, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&out, "%s | %s\n", label, formatKeywordGolden(res))
		assertSameResults(t, label+" results", res.Results, index.ScanTopK(e.Collection(), res.Refined))
	})
	path := filepath.FromSlash(kwGoldenFile)
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, kwGoldenFile, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gotLines), kwGoldenFile, len(wantLines))
	}
}

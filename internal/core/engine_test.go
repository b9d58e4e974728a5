package core

import (
	"context"
	"strings"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
	"github.com/yask-engine/yask/internal/vocab"
)

func testEngine(t *testing.T, n int, seed int64) (*Engine, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(ds.Objects, Options{MaxEntries: 16}), ds
}

// cloneCollection returns an independent collection with the same
// objects, so two engines can apply identical mutation sequences
// without sharing state.
func cloneCollection(c *object.Collection) *object.Collection {
	objs := make([]object.Object, c.Len())
	copy(objs, c.All())
	coll := object.NewCollection(objs)
	for id := 0; id < c.Len(); id++ {
		if !c.Alive(object.ID(id)) {
			coll.Tombstone(object.ID(id))
		}
	}
	return coll
}

// assertSameResults fails unless the two result lists are byte-identical
// in IDs and scores.
func assertSameResults(t *testing.T, ctx string, got, want []score.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Obj.ID != want[i].Obj.ID || got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d: got (%d, %v), want (%d, %v)",
				ctx, i, got[i].Obj.ID, got[i].Score, want[i].Obj.ID, want[i].Score)
		}
	}
}

// assertEquivalent drives the full query surface of both engines and
// fails on any divergence of e from ref: top-k (several k), batch top-k, ranks,
// explanations, and both why-not refinement modules.
func assertEquivalent(t *testing.T, ctx string, ref, e *Engine, qs []score.Query) {
	t.Helper()
	for qi, q := range qs {
		for _, k := range []int{1, 3, 10, 40} {
			qk := q
			qk.K = k
			want, err := ref.TopK(qk)
			if err != nil {
				t.Fatalf("%s q%d k=%d: ref: %v", ctx, qi, k, err)
			}
			got, err := e.TopK(qk)
			if err != nil {
				t.Fatalf("%s q%d k=%d: %v", ctx, qi, k, err)
			}
			assertSameResults(t, ctx, got, want)
		}

		missing := missingFromResult(ref, q, 2)
		if len(missing) < 2 {
			continue
		}
		for _, id := range missing {
			w, err1 := ref.Rank(q, id)
			g, err2 := e.Rank(q, id)
			if err1 != nil || err2 != nil || g != w {
				t.Fatalf("%s q%d: rank(%d) = %d (%v), want %d (%v)", ctx, qi, id, g, err2, w, err1)
			}
		}

		wantEx, err1 := ref.Explain(q, missing)
		gotEx, err2 := e.Explain(q, missing)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: explain errs %v / %v", ctx, qi, err1, err2)
		}
		for i := range wantEx {
			if gotEx[i].Rank != wantEx[i].Rank || gotEx[i].Score != wantEx[i].Score ||
				gotEx[i].Reason != wantEx[i].Reason {
				t.Fatalf("%s q%d: explanation %d diverges: got (rank %d, %v, %v), want (rank %d, %v, %v)",
					ctx, qi, i, gotEx[i].Rank, gotEx[i].Score, gotEx[i].Reason,
					wantEx[i].Rank, wantEx[i].Score, wantEx[i].Reason)
			}
		}

		wantP, err1 := ref.AdjustPreference(q, missing, PreferenceOptions{Lambda: 0.5})
		gotP, err2 := e.AdjustPreference(q, missing, PreferenceOptions{Lambda: 0.5})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: preference errs %v / %v", ctx, qi, err1, err2)
		}
		if gotP.Refined.W != wantP.Refined.W || gotP.Refined.K != wantP.Refined.K ||
			gotP.Penalty != wantP.Penalty || gotP.DeltaK != wantP.DeltaK ||
			gotP.RankBefore != wantP.RankBefore || gotP.RankAfter != wantP.RankAfter {
			t.Fatalf("%s q%d: preference diverges:\n got %+v\nwant %+v", ctx, qi, gotP, wantP)
		}

		wantK, err1 := ref.AdaptKeywords(q, missing[:1], KeywordOptions{Lambda: 0.5})
		gotK, err2 := e.AdaptKeywords(q, missing[:1], KeywordOptions{Lambda: 0.5})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: keyword errs %v / %v", ctx, qi, err1, err2)
		}
		// Candidate counters may differ (the engines may prune
		// differently) but the optimum must not.
		if !gotK.Refined.Doc.Equal(wantK.Refined.Doc) || gotK.Refined.K != wantK.Refined.K ||
			gotK.Penalty != wantK.Penalty || gotK.DeltaK != wantK.DeltaK ||
			gotK.DeltaDoc != wantK.DeltaDoc || gotK.RankBefore != wantK.RankBefore ||
			gotK.RankAfter != wantK.RankAfter {
			t.Fatalf("%s q%d: keyword diverges:\n got %+v\nwant %+v", ctx, qi, gotK, wantK)
		}
	}

	// Batch executor.
	wantB, err1 := ref.TopKBatch(qs, BatchOptions{Workers: 4})
	gotB, err2 := e.TopKBatch(qs, BatchOptions{Workers: 4})
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: batch errs %v / %v", ctx, err1, err2)
	}
	for i := range wantB {
		assertSameResults(t, ctx+" batch", gotB[i], wantB[i])
	}
}

// missingFromResult returns IDs of objects ranked right below the top-k
// under q: ranks k+1 .. k+count. These are guaranteed-valid why-not
// targets.
func missingFromResult(e *Engine, q score.Query, count int) []object.ID {
	extended := q
	extended.K = q.K + count
	res, _ := e.TopK(extended)
	ids := make([]object.ID, 0, count)
	for _, r := range res[q.K:] {
		ids = append(ids, r.Obj.ID)
	}
	return ids
}

func TestTopKValidation(t *testing.T) {
	e, ds := testEngine(t, 100, 1)
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 2, K: 3, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	res, err := e.TopK(q)
	if err != nil || len(res) != 3 {
		t.Fatalf("TopK = %d results, err %v", len(res), err)
	}
	bad := q
	bad.K = 0
	if _, err := e.TopK(bad); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad2 := q
	bad2.Doc = nil
	if _, err := e.TopK(bad2); err == nil {
		t.Fatal("empty doc accepted")
	}
}

func TestValidateWhyNotErrors(t *testing.T) {
	e, ds := testEngine(t, 200, 3)
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 4, K: 3, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	res, _ := e.TopK(q)

	v, err := e.acquireSet()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.validateWhyNot(context.Background(), v, q, nil); err == nil {
		t.Error("empty missing set accepted")
	}
	if _, err := e.validateWhyNot(context.Background(), v, q, []object.ID{9999}); err == nil {
		t.Error("unknown ID accepted")
	}
	m := missingFromResult(e, q, 1)
	if _, err := e.validateWhyNot(context.Background(), v, q, []object.ID{m[0], m[0]}); err == nil {
		t.Error("duplicate missing accepted")
	}
	// An object already in the result is not a why-not question.
	if _, err := e.validateWhyNot(context.Background(), v, q, []object.ID{res[0].Obj.ID}); err == nil {
		t.Error("result member accepted as missing")
	}
	// Valid case returns each missing object's rank and the worst one.
	miss := missingFromResult(e, q, 2)
	s := score.NewScorer(q, ds.Objects)
	w, err := e.validateWhyNot(context.Background(), v, q, miss)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.objs) != 2 || len(w.ranks) != 2 {
		t.Fatalf("objs = %d, ranks = %d", len(w.objs), len(w.ranks))
	}
	wantWorst := 0
	for i, id := range miss {
		r := settree.ScanRank(ds.Objects, s, id)
		if w.ranks[i] != r {
			t.Fatalf("rank of %d = %d, want %d", id, w.ranks[i], r)
		}
		wantWorst = max(wantWorst, r)
	}
	if w.worst != wantWorst {
		t.Fatalf("worst rank %d, want %d", w.worst, wantWorst)
	}
}

func TestMissingDocUnion(t *testing.T) {
	objs := []object.Object{
		{Doc: vocab.NewKeywordSet(1, 2)},
		{Doc: vocab.NewKeywordSet(2, 3)},
	}
	if got := MissingDocUnion(objs); !got.Equal(vocab.NewKeywordSet(1, 2, 3)) {
		t.Fatalf("MissingDocUnion = %v", got)
	}
	if got := MissingDocUnion(nil); !got.Empty() {
		t.Fatalf("empty union = %v", got)
	}
}

func TestExplainReportsTrueRank(t *testing.T) {
	e, ds := testEngine(t, 500, 5)
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 6, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	miss := missingFromResult(e, q, 3)
	exps, err := e.Explain(q, miss)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 3 {
		t.Fatalf("explanations = %d", len(exps))
	}
	s := score.NewScorer(q, ds.Objects)
	for i, ex := range exps {
		if ex.Missing.ID != miss[i] {
			t.Fatalf("explanation %d is for %d", i, ex.Missing.ID)
		}
		if want := settree.ScanRank(ds.Objects, s, miss[i]); ex.Rank != want {
			t.Fatalf("rank %d, scan %d", ex.Rank, want)
		}
		if ex.Rank <= q.K {
			t.Fatal("missing object rank must exceed k")
		}
		if ex.Detail == "" {
			t.Fatal("empty detail")
		}
		if ex.SDist < 0 || ex.SDist > 1 || ex.TSim < 0 || ex.TSim > 1 {
			t.Fatalf("components out of range: %+v", ex)
		}
	}
}

func TestExplainReasonClassification(t *testing.T) {
	// Hand-built scenario: cluster of relevant objects at the query
	// location, one relevant object far away (too-far), one nearby
	// object with disjoint keywords (not-relevant).
	v := vocab.NewVocabulary()
	coffee := v.Intern("coffee")
	cafe := v.Intern("cafe")
	tea := v.Intern("tea")
	bookshop := v.Intern("bookshop")
	objs := []object.Object{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.NewKeywordSet(coffee, cafe)},
		{ID: 1, Loc: geo.Point{X: 1, Y: 0}, Doc: vocab.NewKeywordSet(coffee, cafe)},
		{ID: 2, Loc: geo.Point{X: 0, Y: 1}, Doc: vocab.NewKeywordSet(coffee, cafe)},
		// Far but perfectly relevant.
		{ID: 3, Loc: geo.Point{X: 90, Y: 90}, Doc: vocab.NewKeywordSet(coffee, cafe)},
		// Near but textually unrelated.
		{ID: 4, Loc: geo.Point{X: 1, Y: 1}, Doc: vocab.NewKeywordSet(tea, bookshop)},
		// Filler so the space is big.
		{ID: 5, Loc: geo.Point{X: 100, Y: 0}, Doc: vocab.NewKeywordSet(tea)},
	}
	e := NewEngine(object.NewCollection(objs), Options{MaxEntries: 4})
	q := score.Query{
		Loc: geo.Point{X: 0, Y: 0},
		Doc: vocab.NewKeywordSet(coffee, cafe),
		K:   3, W: score.DefaultWeights,
	}
	res, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	got := score.ResultIDs(res)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("unexpected top-3: %v", got)
	}

	exps, err := e.Explain(q, []object.ID{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if exps[0].Reason != ReasonTooFar {
		t.Errorf("object 3 reason = %v, want too-far (%+v)", exps[0].Reason, exps[0])
	}
	if !exps[0].SuggestPreference {
		t.Error("too-far object should suggest preference adjustment")
	}
	if exps[1].Reason != ReasonNotRelevant {
		t.Errorf("object 4 reason = %v, want not-relevant", exps[1].Reason)
	}
	if !exps[1].SuggestKeyword {
		t.Error("not-relevant object should suggest keyword adaption")
	}
	if !strings.Contains(exps[0].Detail, "far") {
		t.Errorf("detail %q should mention distance", exps[0].Detail)
	}
}

func TestReasonString(t *testing.T) {
	for _, r := range []Reason{ReasonBorderline, ReasonTooFar, ReasonNotRelevant, ReasonBoth, Reason(42)} {
		if r.String() == "" {
			t.Fatalf("empty string for %d", int(r))
		}
	}
}

func TestValidateLambda(t *testing.T) {
	for _, l := range []float64{0, 0.5, 1} {
		if err := validateLambda(l); err != nil {
			t.Errorf("lambda %v rejected", l)
		}
	}
	for _, l := range []float64{-0.1, 1.1} {
		if err := validateLambda(l); err == nil {
			t.Errorf("lambda %v accepted", l)
		}
	}
}

func TestKeywordUniverse(t *testing.T) {
	e, ds := testEngine(t, 300, 7)
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 8, K: 3, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	miss := missingFromResult(e, q, 2)
	u, err := e.KeywordUniverse(q, miss)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Doc
	for _, id := range miss {
		want = want.Union(ds.Objects.Get(id).Doc)
	}
	if !u.Equal(want) {
		t.Fatalf("universe %v, want %v", u, want)
	}
}

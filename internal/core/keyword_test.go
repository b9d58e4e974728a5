package core

import (
	"math"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
	"github.com/yask-engine/yask/internal/vocab"
)

// kwOracle brute-forces the keyword adaption optimum: every non-empty
// subset of q.doc ∪ M.doc, penalty via full-scan rank computation. Only
// usable for small universes.
func kwOracle(t *testing.T, e *Engine, q score.Query, missing []object.ID, lambda float64) KeywordResult {
	t.Helper()
	s := score.NewScorer(q, e.Collection())
	mObjs := make([]object.Object, len(missing))
	for i, id := range missing {
		mObjs[i] = e.Collection().Get(id)
	}
	rankBefore := 0
	for _, m := range mObjs {
		if r := settree.ScanRank(e.Collection(), s, m.ID); r > rankBefore {
			rankBefore = r
		}
	}
	universe := q.Doc.Union(MissingDocUnion(mObjs))
	if universe.Len() > 18 {
		t.Fatalf("universe too large for oracle: %d", universe.Len())
	}
	docNorm := float64(universe.Len())
	kNorm := float64(rankBefore - q.K)

	best := KeywordResult{
		Refined: q, Penalty: lambda,
		DeltaK: rankBefore - q.K, RankBefore: rankBefore, RankAfter: rankBefore,
	}
	best.Refined.K = rankBefore
	for mask := 1; mask < 1<<universe.Len(); mask++ {
		var doc vocab.KeywordSet
		for i, kw := range universe {
			if mask&(1<<i) != 0 {
				doc = append(doc, kw)
			}
		}
		s2 := score.Scorer{Query: q.WithDoc(doc), MaxDist: s.MaxDist}
		worst := 0
		for _, m := range mObjs {
			if r := settree.ScanRank(e.Collection(), s2, m.ID); r > worst {
				worst = r
			}
		}
		dk := worst - q.K
		if dk < 0 {
			dk = 0
		}
		dd := q.Doc.EditDistance(doc)
		pen := lambda*float64(dk)/kNorm + (1-lambda)*float64(dd)/docNorm
		if pen < best.Penalty-1e-15 || (math.Abs(pen-best.Penalty) <= 1e-15 && dd < best.DeltaDoc) {
			refined := q.WithDoc(doc)
			if worst > q.K {
				refined.K = worst
			}
			best = KeywordResult{
				Refined: refined, Penalty: pen, DeltaK: dk, DeltaDoc: dd,
				RankBefore: rankBefore, RankAfter: worst,
			}
		}
	}
	return best
}

func kwWorkload(t *testing.T, e *Engine, ds *dataset.Dataset, seed int64, k, kw, nMiss int) (score.Query, []object.ID) {
	t.Helper()
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: seed, K: k, Keywords: kw, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	return q, missingFromResult(e, q, nMiss)
}

func TestAdaptKeywordsRevivesMissing(t *testing.T) {
	e, ds := testEngine(t, 400, 20)
	for seed := int64(0); seed < 6; seed++ {
		q, miss := kwWorkload(t, e, ds, seed, 5, 2, 2)
		res, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 0.5})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertRevived(t, e, res.Refined, miss)
		if res.Penalty < 0 || res.Penalty > 1+1e-12 {
			t.Fatalf("penalty %v out of range", res.Penalty)
		}
	}
}

func TestAdaptKeywordsMatchesOracle(t *testing.T) {
	// Small dataset with a narrow vocabulary so the oracle universe
	// stays enumerable.
	cfg := dataset.DefaultConfig(150, 21)
	cfg.VocabSize = 30
	cfg.MinKeywords, cfg.MaxKeywords = 2, 5
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds.Objects, Options{MaxEntries: 8})
	for seed := int64(0); seed < 6; seed++ {
		q, miss := kwWorkload(t, e, ds, seed, 3, 2, 1)
		for _, lambda := range []float64{0.3, 0.5, 0.7} {
			assertKeywordMatchesOracle(t, e, q, miss, lambda, seed)
		}
	}
}

// TestAdaptKeywordsAlgorithmsAgree checks the bound-and-prune search
// against brute-force enumeration on a larger engine with the default
// vocabulary, where pruning skips most candidates.
func TestAdaptKeywordsAlgorithmsAgree(t *testing.T) {
	e, ds := testEngine(t, 500, 22)
	for seed := int64(10); seed < 14; seed++ {
		q, miss := kwWorkload(t, e, ds, seed, 5, 2, 1)
		assertKeywordMatchesOracle(t, e, q, miss, 0.5, seed)
		got, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		// Optima tied on penalty and Δdoc may differ in R(M, q′) while it
		// stays within q.k, so check R(M, q′) against Δk, not the oracle.
		if max(got.RankAfter-q.K, 0) != got.DeltaK {
			t.Fatalf("seed %d: rankAfter %d inconsistent with Δk %d at k=%d", seed, got.RankAfter, got.DeltaK, q.K)
		}
		assertRevived(t, e, got.Refined, miss)
		// Pruning must not evaluate more candidates than brute force: the
		// trivial refinement plus every non-empty subset of the universe.
		mObjs := make([]object.Object, len(miss))
		for i, id := range miss {
			mObjs[i] = e.Collection().Get(id)
		}
		exhaustive := 1 << q.Doc.Union(MissingDocUnion(mObjs)).Len()
		if got.CandidatesEvaluated > exhaustive {
			t.Fatalf("seed %d: bound-prune evaluated %d > exhaustive %d", seed, got.CandidatesEvaluated, exhaustive)
		}
	}
}

// assertKeywordMatchesOracle checks AdaptKeywords against kwOracle.
func assertKeywordMatchesOracle(t *testing.T, e *Engine, q score.Query, miss []object.ID, lambda float64, seed int64) {
	t.Helper()
	want := kwOracle(t, e, q, miss, lambda)
	got, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Penalty-want.Penalty) > 1e-12 {
		t.Fatalf("seed %d λ=%v: penalty %v, oracle %v (doc %v vs %v)",
			seed, lambda, got.Penalty, want.Penalty, got.Refined.Doc, want.Refined.Doc)
	}
	if got.RankBefore != want.RankBefore {
		t.Fatalf("seed %d: rankBefore %d, oracle %d", seed, got.RankBefore, want.RankBefore)
	}
	if got.DeltaDoc != want.DeltaDoc || got.DeltaK != want.DeltaK {
		t.Fatalf("seed %d λ=%v: results differ: %+v vs oracle %+v", seed, lambda, got, want)
	}
}

func TestAdaptKeywordsEditAccounting(t *testing.T) {
	e, ds := testEngine(t, 400, 23)
	q, miss := kwWorkload(t, e, ds, 30, 5, 3, 2)
	res, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// Added/Removed must reproduce the refined doc.
	rebuilt := q.Doc.Diff(res.Removed).Union(res.Added)
	if !rebuilt.Equal(res.Refined.Doc) {
		t.Fatalf("edits do not rebuild the doc: %v vs %v", rebuilt, res.Refined.Doc)
	}
	if got := q.Doc.EditDistance(res.Refined.Doc); got != res.DeltaDoc {
		t.Fatalf("DeltaDoc %d, edit distance %d", res.DeltaDoc, got)
	}
	// Penalty recomputation.
	universe := q.Doc
	for _, id := range miss {
		universe = universe.Union(ds.Objects.Get(id).Doc)
	}
	kNorm := float64(res.RankBefore - q.K)
	want := 0.6*float64(res.DeltaK)/kNorm + 0.4*float64(res.DeltaDoc)/float64(universe.Len())
	if math.Abs(res.Penalty-want) > 1e-12 {
		t.Fatalf("penalty %v, recomputed %v", res.Penalty, want)
	}
}

func TestAdaptKeywordsLambdaZero(t *testing.T) {
	e, ds := testEngine(t, 300, 24)
	q, miss := kwWorkload(t, e, ds, 40, 5, 2, 1)
	// λ = 0: keyword edits carry the whole penalty, so keeping q.doc and
	// enlarging k is free and optimal.
	res, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalty != 0 || res.DeltaDoc != 0 {
		t.Fatalf("λ=0: penalty %v Δdoc %d; keeping keywords should be free", res.Penalty, res.DeltaDoc)
	}
	assertRevived(t, e, res.Refined, miss)
}

func TestAdaptKeywordsMaxEditsCap(t *testing.T) {
	e, ds := testEngine(t, 300, 25)
	q, miss := kwWorkload(t, e, ds, 50, 5, 2, 1)
	res, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 0.9, MaxEdits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaDoc > 1 {
		t.Fatalf("MaxEdits=1 violated: Δdoc %d", res.DeltaDoc)
	}
	assertRevived(t, e, res.Refined, miss)
}

func TestAdaptKeywordsAddsHelpfulKeyword(t *testing.T) {
	// Carol's scenario (Example 2): the expected hotel is described by
	// "luxury", not by the query keywords. The adapter should introduce
	// a keyword from the missing hotel's document.
	v := vocab.NewVocabulary()
	clean := v.Intern("clean")
	comfortable := v.Intern("comfortable")
	luxury := v.Intern("luxury")
	spa := v.Intern("spa")
	objs := []object.Object{
		// Three local hotels matching the query keywords exactly.
		{ID: 0, Loc: geo.Point{X: 1, Y: 0}, Doc: vocab.NewKeywordSet(clean, comfortable)},
		{ID: 1, Loc: geo.Point{X: 0, Y: 1}, Doc: vocab.NewKeywordSet(clean, comfortable)},
		{ID: 2, Loc: geo.Point{X: 1, Y: 1}, Doc: vocab.NewKeywordSet(clean, comfortable)},
		// The well-known international hotel: near, but described by
		// luxury/spa rather than the query terms.
		{ID: 3, Loc: geo.Point{X: 0.5, Y: 0.5}, Doc: vocab.NewKeywordSet(luxury, spa, clean)},
		// Distant noise.
		{ID: 4, Loc: geo.Point{X: 50, Y: 50}, Doc: vocab.NewKeywordSet(spa)},
	}
	e := NewEngine(object.NewCollection(objs), Options{MaxEntries: 4})
	q := score.Query{
		Loc: geo.Point{X: 0, Y: 0},
		Doc: vocab.NewKeywordSet(clean, comfortable),
		K:   3, W: score.DefaultWeights,
	}
	res, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Obj.ID == 3 {
			t.Fatal("hotel 3 unexpectedly in the initial result")
		}
	}
	ref, err := e.AdaptKeywords(q, []object.ID{3}, KeywordOptions{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	assertRevived(t, e, ref.Refined, []object.ID{3})
	// The refined doc must draw only from q.doc ∪ m.doc.
	universe := q.Doc.Union(vocab.NewKeywordSet(luxury, spa, clean))
	if ref.Refined.Doc.Diff(universe).Len() != 0 {
		t.Fatalf("refined doc %v outside universe %v", ref.Refined.Doc, universe)
	}
}

func TestAdaptKeywordsInvalidInputs(t *testing.T) {
	e, ds := testEngine(t, 100, 26)
	q, miss := kwWorkload(t, e, ds, 60, 3, 2, 1)
	if _, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 2}); err == nil {
		t.Error("lambda 2 accepted")
	}
	if _, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 0.5, Algorithm: KeywordAlgorithm(77)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := e.AdaptKeywords(q, nil, KeywordOptions{Lambda: 0.5}); err == nil {
		t.Error("no missing objects accepted")
	}
}

func TestForEachSubset(t *testing.T) {
	set := vocab.NewKeywordSet(1, 2, 3, 4)
	counts := map[int]int{}
	for k := 0; k <= 5; k++ {
		n := 0
		seen := map[string]bool{}
		forEachSubset(set, k, func(s vocab.KeywordSet) {
			n++
			if s.Len() != k {
				t.Fatalf("subset %v has wrong size (want %d)", s, k)
			}
			key := s.Key()
			if seen[key] {
				t.Fatalf("duplicate subset %v", s)
			}
			seen[key] = true
		})
		counts[k] = n
	}
	want := map[int]int{0: 1, 1: 4, 2: 6, 3: 4, 4: 1, 5: 0}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("C(4,%d) enumerated %d times, want %d", k, counts[k], n)
		}
	}
}

func TestForEachSubsetEmptySet(t *testing.T) {
	calls := 0
	forEachSubset(nil, 0, func(s vocab.KeywordSet) {
		if s != nil {
			t.Fatal("empty subset should be nil")
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("k=0 over empty set called %d times", calls)
	}
	forEachSubset(nil, 1, func(vocab.KeywordSet) { t.Fatal("impossible subset enumerated") })
}

// TestWhyNotUnderDiceModel runs both refinement models under the Dice
// similarity and checks the revival property end to end.
func TestWhyNotUnderDiceModel(t *testing.T) {
	e, ds := testEngine(t, 300, 44)
	base := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 45, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	q := base
	q.Sim = score.SimDice
	miss := missingFromResult(e, q, 1)
	if len(miss) == 0 {
		t.Skip("no missing object available")
	}
	pref, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	assertRevived(t, e, pref.Refined, miss)
	kw, err := e.AdaptKeywords(q, miss, KeywordOptions{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	assertRevived(t, e, kw.Refined, miss)
}

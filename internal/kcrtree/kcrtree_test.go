package kcrtree

import (
	"math/rand"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
	"github.com/yask-engine/yask/internal/vocab"
)

func testDataset(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCountsGetAndMerge(t *testing.T) {
	a := Counts{{K: 1, N: 2}, {K: 3, N: 1}}
	b := Counts{{K: 1, N: 1}, {K: 2, N: 4}}
	m := a.merge(b)
	want := Counts{{K: 1, N: 3}, {K: 2, N: 4}, {K: 3, N: 1}}
	if len(m) != len(want) {
		t.Fatalf("merge = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("merge[%d] = %v, want %v", i, m[i], want[i])
		}
	}
	if a.Get(1) != 2 || a.Get(3) != 1 || a.Get(2) != 0 || a.Get(99) != 0 {
		t.Fatal("Get wrong")
	}
	var empty Counts
	if got := empty.merge(a); len(got) != len(a) {
		t.Fatal("merge with empty wrong")
	}
}

// TestFig2Example reproduces the example KcR-tree of the paper's Fig. 2:
// five restaurant objects whose root node must carry the keyword-count
// map {Chinese:2, Spanish:2, restaurant:5} and cnt = 5.
func TestFig2Example(t *testing.T) {
	v := vocab.NewVocabulary()
	chinese := v.Intern("chinese")
	spanish := v.Intern("spanish")
	restaurant := v.Intern("restaurant")
	objs := []object.Object{
		{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.NewKeywordSet(chinese, restaurant)},  // o1
		{ID: 1, Loc: geo.Point{X: 1, Y: 0}, Doc: vocab.NewKeywordSet(chinese, restaurant)},  // o2
		{ID: 2, Loc: geo.Point{X: 2, Y: 0}, Doc: vocab.NewKeywordSet(restaurant)},           // o3
		{ID: 3, Loc: geo.Point{X: 10, Y: 0}, Doc: vocab.NewKeywordSet(spanish, restaurant)}, // o4
		{ID: 4, Loc: geo.Point{X: 11, Y: 0}, Doc: vocab.NewKeywordSet(spanish, restaurant)}, // o5
	}
	ix := Build(object.NewCollection(objs), 4)
	root := ix.Tree().Root()
	aug := root.Aug()
	if aug.Cnt != 5 {
		t.Fatalf("root cnt = %d, want 5", aug.Cnt)
	}
	if got := aug.Counts.Get(chinese); got != 2 {
		t.Errorf("count(chinese) = %d, want 2", got)
	}
	if got := aug.Counts.Get(spanish); got != 2 {
		t.Errorf("count(spanish) = %d, want 2", got)
	}
	if got := aug.Counts.Get(restaurant); got != 5 {
		t.Errorf("count(restaurant) = %d, want 5", got)
	}
	// The implied intersection is exactly {restaurant}, the union all three.
	if !aug.Inter().Equal(vocab.NewKeywordSet(restaurant)) {
		t.Errorf("Inter = %v", aug.Inter())
	}
	if !aug.Union().Equal(vocab.NewKeywordSet(chinese, spanish, restaurant)) {
		t.Errorf("Union = %v", aug.Union())
	}
}

// TestAugMatchesBruteForce validates every node's count map against a
// direct recount of the objects below it.
func TestAugMatchesBruteForce(t *testing.T) {
	ds := testDataset(t, 600, 1)
	for _, build := range []func(*object.Collection, int) *Index{Build, BuildByInsertion} {
		ix := build(ds.Objects, 16)
		var walk func(n *rtree.Node[object.Object, Aug]) map[vocab.Keyword]int32
		walk = func(n *rtree.Node[object.Object, Aug]) map[vocab.Keyword]int32 {
			counts := map[vocab.Keyword]int32{}
			total := int32(0)
			if n.IsLeaf() {
				for _, e := range n.Entries() {
					total++
					for _, kw := range e.Item.Doc {
						counts[kw]++
					}
				}
			} else {
				for _, c := range n.Children() {
					sub := walk(c)
					for k, v := range sub {
						counts[k] += v
					}
					total += c.Aug().Cnt
				}
			}
			aug := n.Aug()
			if aug.Cnt != total {
				t.Fatalf("cnt = %d, recount %d", aug.Cnt, total)
			}
			if len(aug.Counts) != len(counts) {
				t.Fatalf("count map has %d keys, recount %d", len(aug.Counts), len(counts))
			}
			for _, kv := range aug.Counts {
				if counts[kv.K] != kv.N {
					t.Fatalf("count(%d) = %d, recount %d", kv.K, kv.N, counts[kv.K])
				}
			}
			return counts
		}
		walk(ix.Tree().Root())
	}
}

// TestTSimBoundsSound checks that for random candidate keyword sets the
// node bounds bracket the true Jaccard of every object below.
func TestTSimBoundsSound(t *testing.T) {
	ds := testDataset(t, 400, 2)
	ix := Build(ds.Objects, 8)
	rng := rand.New(rand.NewSource(3))
	sims := []struct {
		sim score.TextSim
		fn  func(a, b vocab.KeywordSet) float64
	}{
		{score.SimJaccard, vocab.KeywordSet.Jaccard},
		{score.SimDice, vocab.KeywordSet.Dice},
	}
	for trial := 0; trial < 150; trial++ {
		// Mix of object keywords and random ones, like refined sets.
		src := ds.Objects.Get(object.ID(rng.Intn(ds.Objects.Len()))).Doc
		qdoc := vocab.NewKeywordSet(
			src[rng.Intn(len(src))],
			vocab.Keyword(rng.Intn(ds.Vocab.Len())),
			vocab.Keyword(rng.Intn(ds.Vocab.Len())),
		)
		for _, sm := range sims {
			var walk func(n *rtree.Node[object.Object, Aug])
			walk = func(n *rtree.Node[object.Object, Aug]) {
				lo, hi := TSimBounds(n.Aug(), qdoc, sm.sim)
				if lo > hi+1e-12 {
					t.Fatalf("%v: lo %v > hi %v", sm.sim, lo, hi)
				}
				if n.IsLeaf() {
					for _, e := range n.Entries() {
						j := sm.fn(e.Item.Doc, qdoc)
						if j < lo-1e-12 || j > hi+1e-12 {
							t.Fatalf("%v: object %d TSim %v outside [%v, %v]", sm.sim, e.Item.ID, j, lo, hi)
						}
					}
					return
				}
				for _, c := range n.Children() {
					walk(c)
				}
			}
			walk(ix.Tree().Root())
		}
	}
}

func TestTSimBoundsEdgeCases(t *testing.T) {
	if lo, hi := TSimBounds(Aug{}, vocab.NewKeywordSet(1), score.SimJaccard); lo != 0 || hi != 0 {
		t.Errorf("empty aug bounds = %v,%v", lo, hi)
	}
	a := Aug{Counts: Counts{{K: 1, N: 2}, {K: 2, N: 1}}, Cnt: 2}
	if lo, hi := TSimBounds(a, nil, score.SimJaccard); lo != 0 || hi != 0 {
		t.Errorf("empty qdoc bounds = %v,%v", lo, hi)
	}
	// Single object: bounds must be exact.
	single := Aug{Counts: Counts{{K: 1, N: 1}, {K: 2, N: 1}}, Cnt: 1, InterLen: 2, MinLen: 2, MaxLen: 2}
	q := vocab.NewKeywordSet(1, 3)
	lo, hi := TSimBounds(single, q, score.SimJaccard)
	want := vocab.NewKeywordSet(1, 2).Jaccard(q)
	if lo != want || hi != want {
		t.Errorf("single-object bounds [%v,%v], want exactly %v", lo, hi, want)
	}
}

func TestScoreBoundsBracket(t *testing.T) {
	ds := testDataset(t, 500, 4)
	ix := Build(ds.Objects, 16)
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 10, Seed: 5, K: 5, Keywords: 2, W: score.WeightsFromWt(0.6), FromObjectDocs: true,
	})
	for _, q := range qs {
		s := score.NewScorer(q, ds.Objects)
		var walk func(n *rtree.Node[object.Object, Aug])
		walk = func(n *rtree.Node[object.Object, Aug]) {
			lo, hi := ix.ScoreBounds(s, n)
			if n.IsLeaf() {
				for _, e := range n.Entries() {
					sc := s.Score(e.Item)
					if sc < lo-1e-12 || sc > hi+1e-12 {
						t.Fatalf("score %v outside [%v, %v]", sc, lo, hi)
					}
				}
				return
			}
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(ix.Tree().Root())
	}
}

func TestRankOfMatchesScan(t *testing.T) {
	ds := testDataset(t, 800, 6)
	ix := Build(ds.Objects, 32)
	rng := rand.New(rand.NewSource(7))
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 15, Seed: 8, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	for _, q := range qs {
		s := score.NewScorer(q, ds.Objects)
		for trial := 0; trial < 5; trial++ {
			oid := object.ID(rng.Intn(ds.Objects.Len()))
			got, _ := ix.RankOf(s, oid)
			want := settree.ScanRank(ds.Objects, s, oid)
			if got != want {
				t.Fatalf("RankOf(%d) = %d, scan %d", oid, got, want)
			}
		}
	}
}

// TestRankOfWithRefinedDocs exercises the case the index exists for:
// rank computation under keyword sets that differ from any object's doc.
func TestRankOfWithRefinedDocs(t *testing.T) {
	ds := testDataset(t, 500, 9)
	ix := Build(ds.Objects, 16)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		var qdoc vocab.KeywordSet
		for qdoc.Len() < 1+rng.Intn(4) {
			qdoc = qdoc.Add(vocab.Keyword(rng.Intn(ds.Vocab.Len())))
		}
		q := score.Query{
			Loc: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			Doc: qdoc, K: 5, W: score.WeightsFromWt(0.3 + 0.4*rng.Float64()),
		}
		s := score.NewScorer(q, ds.Objects)
		oid := object.ID(rng.Intn(ds.Objects.Len()))
		got, _ := ix.RankOf(s, oid)
		if want := settree.ScanRank(ds.Objects, s, oid); got != want {
			t.Fatalf("trial %d: RankOf = %d, scan %d", trial, got, want)
		}
	}
}

func TestRankBoundsBracketExact(t *testing.T) {
	ds := testDataset(t, 1000, 11)
	ix := Build(ds.Objects, 16)
	height := ix.Tree().Height()
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 10, Seed: 12, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	rng := rand.New(rand.NewSource(13))
	for _, q := range qs {
		s := score.NewScorer(q, ds.Objects)
		oid := object.ID(rng.Intn(ds.Objects.Len()))
		o := ds.Objects.Get(oid)
		refScore := s.Score(o)
		exact, _ := ix.CountBetter(s, refScore, oid)
		prevLo, prevHi := -1, 1<<30
		for depth := 0; depth <= height; depth++ {
			lo, hi, _ := ix.RankBounds(s, refScore, oid, depth)
			if lo > exact || hi < exact {
				t.Fatalf("depth %d bounds [%d,%d] exclude exact %d", depth, lo, hi, exact)
			}
			// Deeper traversal must not loosen bounds.
			if lo < prevLo || hi > prevHi {
				t.Fatalf("bounds loosened at depth %d: [%d,%d] after [%d,%d]", depth, lo, hi, prevLo, prevHi)
			}
			prevLo, prevHi = lo, hi
		}
		// At full height the bounds must converge.
		lo, hi, _ := ix.RankBounds(s, refScore, oid, height)
		if lo != exact || hi != exact {
			t.Fatalf("full-depth bounds [%d,%d] != exact %d", lo, hi, exact)
		}
	}
}

func TestCountBetterPrunes(t *testing.T) {
	ds := testDataset(t, 5000, 14)
	ix := Build(ds.Objects, 64)
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 15, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	s := score.NewScorer(q, ds.Objects)
	// Reference: a high-scoring object (rank queries near the top prune
	// hardest, as in the why-not workload where missing objects are
	// usually competitive).
	best := settree.ScanTopK(ds.Objects, q)[0]
	ix.Stats().Reset()
	ix.RankOf(s, best.Obj.ID) //nolint:errcheck // stats probe
	if got := ix.Stats().NodeAccesses(); got >= int64(ix.Tree().NodeCount()) {
		t.Fatalf("rank query touched %d of %d nodes", got, ix.Tree().NodeCount())
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := Build(object.NewCollection(nil), 8)
	q := score.Query{Loc: geo.Point{}, Doc: vocab.NewKeywordSet(1), K: 1, W: score.DefaultWeights}
	s := score.Scorer{Query: q, MaxDist: 1}
	if got, _ := ix.CountBetter(s, 0.5, 0); got != 0 {
		t.Fatalf("CountBetter on empty = %d", got)
	}
	if lo, hi, _ := ix.RankBounds(s, 0.5, 0, 3); lo != 0 || hi != 0 {
		t.Fatalf("RankBounds on empty = %d,%d", lo, hi)
	}
}

// TestForEachCrossSkipsProvablyBelowEntries is the pruning regression
// test of the crossing descent: over seeded missing lines at n = 20k,
// the objects it visits whose line lies strictly below the missing line
// at both wt = 0 and wt = 1 (which can never cross it) must stay a small
// share of the visits with signatures on, where each entry's signature
// can prove it. Without signatures that share is most of the visits,
// which the test checks too, so the bound has something to catch.
func TestForEachCrossSkipsProvablyBelowEntries(t *testing.T) {
	ds := testDataset(t, 20000, 21)
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 12, Seed: 22, K: 10, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	for _, sigs := range []bool{true, false} {
		a, err := BuildWith(ds.Objects, rtree.DefaultMaxEntries, sigs).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		visited, below := 0, 0
		for _, q := range qs {
			s := a.Scorer(q)
			// Missing objects from ranks k+1 … k+10, as in a why-not session.
			res := a.TopK(index.NoCancel, s, q.K+10, nil, nil)
			for _, m := range res[q.K:] {
				m0, m1 := 1-s.SDist(m.Obj), s.TSim(m.Obj)
				a.ForEachCross(index.NoCancel, s, m0, m1,
					func(o object.Object) {
						visited++
						if 1-s.SDist(o) < m0 && s.TSim(o) < m1 {
							below++
						}
					},
					func(int) {})
			}
		}
		share := float64(below) / float64(visited)
		t.Logf("signatures %v: %d visits, %d strictly below at both ends (%.1f%%)", sigs, visited, below, 100*share)
		if sigs && share > 0.05 {
			t.Errorf("signatures on: %.1f%% of visited objects are provably below, want ≤ 5%%", 100*share)
		}
		if !sigs && share < 0.5 {
			t.Errorf("signatures off: only %.1f%% of visited objects are below; the fixture no longer shows the waste the entry rule removes", 100*share)
		}
	}
}

package settree

import (
	"math/rand"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
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

func testQueries(ds *dataset.Dataset, n int, seed int64, k, kw int) []score.Query {
	return dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: n, Seed: seed, K: k, Keywords: kw,
		W: score.DefaultWeights, FromObjectDocs: true,
	})
}

func TestAugInvariant(t *testing.T) {
	ds := testDataset(t, 500, 1)
	ix := Build(ds.Objects, 16)
	var walk func(n *rtree.Node[object.Object, Aug]) (inter, union vocab.KeywordSet)
	walk = func(n *rtree.Node[object.Object, Aug]) (vocab.KeywordSet, vocab.KeywordSet) {
		var inter, union vocab.KeywordSet
		first := true
		if n.IsLeaf() {
			for _, e := range n.Entries() {
				if first {
					inter, union = e.Item.Doc, e.Item.Doc
					first = false
				} else {
					inter = inter.Intersect(e.Item.Doc)
					union = union.Union(e.Item.Doc)
				}
			}
		} else {
			for _, c := range n.Children() {
				ci, cu := walk(c)
				if first {
					inter, union = ci, cu
					first = false
				} else {
					inter = inter.Intersect(ci)
					union = union.Union(cu)
				}
			}
		}
		if !n.Aug().Inter.Equal(inter) {
			t.Fatalf("node Inter %v, recomputed %v", n.Aug().Inter, inter)
		}
		if !n.Aug().Union.Equal(union) {
			t.Fatalf("node Union %v, recomputed %v", n.Aug().Union, union)
		}
		return inter, union
	}
	walk(ix.Tree().Root())
}

func TestTSimUpperBoundSound(t *testing.T) {
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
	for trial := 0; trial < 200; trial++ {
		// Random query doc from object docs.
		src := ds.Objects.Get(object.ID(rng.Intn(ds.Objects.Len()))).Doc
		qdoc := vocab.NewKeywordSet(src[rng.Intn(len(src))], vocab.Keyword(rng.Intn(ds.Vocab.Len())))
		for _, sm := range sims {
			var walk func(n *rtree.Node[object.Object, Aug])
			walk = func(n *rtree.Node[object.Object, Aug]) {
				ub := TSimUpperBound(n.Aug(), qdoc, sm.sim)
				if n.IsLeaf() {
					for _, e := range n.Entries() {
						if got := sm.fn(e.Item.Doc, qdoc); got > ub+1e-12 {
							t.Fatalf("%v: object %d TSim %v exceeds node bound %v", sm.sim, e.Item.ID, got, ub)
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

func TestTSimUpperBoundEdgeCases(t *testing.T) {
	empty := Aug{}
	if got := TSimUpperBound(empty, nil, score.SimJaccard); got != 0 {
		t.Errorf("empty/empty bound = %v, want 0", got)
	}
	if got := TSimUpperBound(empty, vocab.NewKeywordSet(1), score.SimJaccard); got != 0 {
		t.Errorf("empty aug, nonempty q = %v, want 0", got)
	}
	a := Aug{Inter: nil, Union: vocab.NewKeywordSet(1, 2), MinLen: 1, MaxLen: 2}
	if got := TSimUpperBound(a, vocab.NewKeywordSet(1), score.SimJaccard); got != 1 {
		t.Errorf("bound = %v, want 1 (object could be exactly {1})", got)
	}
}

func TestTopKMatchesScan(t *testing.T) {
	ds := testDataset(t, 1000, 4)
	ix := Build(ds.Objects, 32)
	for _, q := range testQueries(ds, 40, 5, 10, 2) {
		got, _ := ix.TopK(q)
		want := ScanTopK(ds.Objects, q)
		if len(got) != len(want) {
			t.Fatalf("TopK returned %d, scan %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Obj.ID != want[i].Obj.ID {
				t.Fatalf("rank %d: index %d (%.6f), scan %d (%.6f)",
					i, got[i].Obj.ID, got[i].Score, want[i].Obj.ID, want[i].Score)
			}
		}
	}
}

func TestTopKVariousWeightsAndK(t *testing.T) {
	ds := testDataset(t, 600, 6)
	ix := Build(ds.Objects, 16)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		wt := 0.05 + 0.9*rng.Float64()
		k := 1 + rng.Intn(30)
		qs := dataset.Workload(ds, dataset.WorkloadConfig{
			Queries: 1, Seed: int64(trial), K: k, Keywords: 1 + rng.Intn(3),
			W: score.WeightsFromWt(wt), FromObjectDocs: true,
		})
		q := qs[0]
		got, _ := ix.TopK(q)
		want := ScanTopK(ds.Objects, q)
		for i := range want {
			if got[i].Obj.ID != want[i].Obj.ID {
				t.Fatalf("trial %d rank %d: index %d, scan %d (wt=%v k=%d)",
					trial, i, got[i].Obj.ID, want[i].Obj.ID, wt, k)
			}
		}
	}
}

func TestTopKInsertionBuiltIndex(t *testing.T) {
	ds := testDataset(t, 400, 8)
	ix := BuildByInsertion(ds.Objects, 8)
	if err := ix.Tree().Verify(); err != nil {
		t.Fatal(err)
	}
	for _, q := range testQueries(ds, 10, 9, 5, 2) {
		got, _ := ix.TopK(q)
		want := ScanTopK(ds.Objects, q)
		for i := range want {
			if got[i].Obj.ID != want[i].Obj.ID {
				t.Fatalf("rank %d: index %d, scan %d", i, got[i].Obj.ID, want[i].Obj.ID)
			}
		}
	}
}

func TestTopKSmallerThanK(t *testing.T) {
	ds := testDataset(t, 5, 10)
	ix := Build(ds.Objects, 8)
	q := testQueries(ds, 1, 1, 50, 2)[0]
	got, _ := ix.TopK(q)
	if len(got) != 5 {
		t.Fatalf("got %d results, want all 5", len(got))
	}
}

func TestTopKEmptyIndex(t *testing.T) {
	ix := Build(object.NewCollection(nil), 8)
	q := score.Query{Loc: geo.Point{X: 0, Y: 0}, Doc: vocab.NewKeywordSet(1), K: 3, W: score.DefaultWeights}
	if got, _ := ix.TopK(q); got != nil {
		t.Fatalf("TopK on empty = %v", got)
	}
}

func TestTopKResultsSorted(t *testing.T) {
	ds := testDataset(t, 800, 11)
	ix := Build(ds.Objects, 32)
	for _, q := range testQueries(ds, 10, 12, 20, 2) {
		got, _ := ix.TopK(q)
		for i := 1; i < len(got); i++ {
			if score.Better(got[i].Score, got[i].Obj.ID, got[i-1].Score, got[i-1].Obj.ID) {
				t.Fatalf("results out of order at %d", i)
			}
		}
	}
}

func TestRankOfMatchesScan(t *testing.T) {
	ds := testDataset(t, 700, 13)
	ix := Build(ds.Objects, 16)
	rng := rand.New(rand.NewSource(14))
	for _, q := range testQueries(ds, 15, 15, 5, 2) {
		s := score.NewScorer(q, ds.Objects)
		for trial := 0; trial < 5; trial++ {
			oid := object.ID(rng.Intn(ds.Objects.Len()))
			got, _ := ix.RankOf(s, oid)
			want := ScanRank(ds.Objects, s, oid)
			if got != want {
				t.Fatalf("RankOf(%d) = %d, scan %d", oid, got, want)
			}
		}
	}
}

func TestRankConsistentWithTopK(t *testing.T) {
	ds := testDataset(t, 300, 16)
	ix := Build(ds.Objects, 16)
	q := testQueries(ds, 1, 17, 10, 2)[0]
	s := score.NewScorer(q, ds.Objects)
	res, _ := ix.TopK(q)
	for i, r := range res {
		if rank, _ := ix.RankOf(s, r.Obj.ID); rank != i+1 {
			t.Fatalf("result %d has RankOf %d", i, rank)
		}
	}
}

func TestCountBetterPrunes(t *testing.T) {
	ds := testDataset(t, 5000, 18)
	ix := Build(ds.Objects, 64)
	q := testQueries(ds, 1, 19, 5, 2)[0]
	s := score.NewScorer(q, ds.Objects)
	topRes, _ := ix.TopK(q)
	top := topRes[0]
	ix.Stats().Reset()
	ix.RankOf(s, top.Obj.ID) //nolint:errcheck // warm-path stats probe
	accesses := ix.Stats().NodeAccesses()
	if accesses >= int64(ix.Tree().NodeCount()) {
		t.Fatalf("rank query touched all %d nodes; pruning ineffective", accesses)
	}
}

func TestTopKNodeAccessesBelowFullScan(t *testing.T) {
	ds := testDataset(t, 5000, 20)
	ix := Build(ds.Objects, 64)
	q := testQueries(ds, 1, 21, 10, 2)[0]
	ix.Stats().Reset()
	ix.TopK(q) //nolint:errcheck
	if got := ix.Stats().NodeAccesses(); got >= int64(ix.Tree().NodeCount()) {
		t.Fatalf("top-k touched %d of %d nodes", got, ix.Tree().NodeCount())
	}
}

func TestScanTopKDeterministicTieBreak(t *testing.T) {
	// Objects at identical location with identical docs: ties must break
	// by ascending ID.
	objs := make([]object.Object, 10)
	for i := range objs {
		objs[i] = object.Object{ID: object.ID(i), Loc: geo.Point{X: 1, Y: 1}, Doc: vocab.NewKeywordSet(1)}
	}
	c := object.NewCollection(objs)
	q := score.Query{Loc: geo.Point{X: 1, Y: 1}, Doc: vocab.NewKeywordSet(1), K: 4, W: score.DefaultWeights}
	want := []object.ID{0, 1, 2, 3}
	fromIndex, _ := Build(c, 4).TopK(q)
	for _, got := range [][]score.Result{ScanTopK(c, q), fromIndex} {
		ids := score.ResultIDs(got)
		if len(ids) != 4 {
			t.Fatalf("got %v", ids)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("tie-break order %v, want %v", ids, want)
			}
		}
	}
}

func TestHKHotelsQueryEndToEnd(t *testing.T) {
	ds := dataset.HKHotels()
	ix := Build(ds.Objects, rtree.DefaultMaxEntries)
	coffee, ok := ds.Vocab.Lookup("wifi")
	if !ok {
		t.Fatal("wifi missing from vocabulary")
	}
	q := score.Query{
		Loc: geo.Point{X: 114.17, Y: 22.30}, // Tsim Sha Tsui
		Doc: vocab.NewKeywordSet(coffee),
		K:   3,
		W:   score.DefaultWeights,
	}
	got, _ := ix.TopK(q)
	want := ScanTopK(ds.Objects, q)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for i := range got {
		if got[i].Obj.ID != want[i].Obj.ID {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

// TestTopKDiceModel validates the engine under the alternative Dice
// similarity (the paper's footnote 1) against the scan oracle.
func TestTopKDiceModel(t *testing.T) {
	ds := testDataset(t, 800, 40)
	ix := Build(ds.Objects, 32)
	for _, base := range testQueries(ds, 20, 41, 10, 2) {
		q := base
		q.Sim = score.SimDice
		got, _ := ix.TopK(q)
		want := ScanTopK(ds.Objects, q)
		for i := range want {
			if got[i].Obj.ID != want[i].Obj.ID {
				t.Fatalf("dice rank %d: index %d, scan %d", i, got[i].Obj.ID, want[i].Obj.ID)
			}
		}
	}
}

// TestDiceAndJaccardDisagree guards against the Dice path silently
// falling back to Jaccard: over enough queries the two models must
// produce at least one different result list.
func TestDiceAndJaccardDisagree(t *testing.T) {
	ds := testDataset(t, 800, 42)
	ix := Build(ds.Objects, 32)
	differ := false
	for _, base := range testQueries(ds, 40, 43, 10, 2) {
		jacRes, _ := ix.TopK(base)
		jac := score.ResultIDs(jacRes)
		q := base
		q.Sim = score.SimDice
		diceRes, _ := ix.TopK(q)
		dice := score.ResultIDs(diceRes)
		for i := range jac {
			if i < len(dice) && jac[i] != dice[i] {
				differ = true
			}
		}
	}
	if !differ {
		t.Fatal("Dice and Jaccard produced identical rankings on every query")
	}
}

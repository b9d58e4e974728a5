package kcrtree

import (
	"fmt"
	"math/rand"
	"slices"
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

// crossFixture is the shared fixture of the crossing-descent tests: six
// queries over 5,000 objects, each with reference objects at ranks
// k+1, k+6, 201, 1001 and 3001 — the first two as in a why-not session,
// the deeper ones where whole subtrees lie above the reference.
func crossFixture(t *testing.T) (*dataset.Dataset, []score.Query, [][]object.Object) {
	t.Helper()
	ds := testDataset(t, 5000, 23)
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 6, Seed: 24, K: 10, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	refs := make([][]object.Object, len(qs))
	for i, q := range qs {
		deep := q
		deep.K = 3001
		res := index.ScanTopK(ds.Objects, deep)
		for _, rank := range []int{q.K, q.K + 5, 200, 1000, 3000} {
			refs[i] = append(refs[i], res[rank].Obj)
		}
	}
	return ds, qs, refs
}

// crossSnapshots returns both index families over ds, with the
// signature layer on or off.
func crossSnapshots(t *testing.T, ds *dataset.Dataset, sigs bool) map[string]index.Snapshot {
	t.Helper()
	kc, err := BuildWith(ds.Objects, rtree.DefaultMaxEntries, sigs).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	six := settree.Build(ds.Objects, rtree.DefaultMaxEntries)
	six.SetSignatures(sigs)
	st, err := six.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]index.Snapshot{"kcrtree": kc, "settree": st}
}

// crossState is the sweep's view of one competitor line (a0 at wt = 0,
// a1 at wt = 1, object aID) against a reference line (m0, m1, mID): the
// crossing weight, if the two swap order inside (0, 1), and whether the
// competitor is above the reference just inside lo — after a crossing
// below lo, before one from lo on. It restates core's scoreLine rules:
// endpoint values compare exactly, ties at one end are decided by the
// other, identical lines by ID.
func crossState(a0, a1 float64, aID object.ID, m0, m1 float64, mID object.ID, lo float64) (wt float64, crosses, aboveAtLo bool) {
	order := func(x, y, x2, y2 float64) bool {
		if x != y {
			return x > y
		}
		if x2 != y2 {
			return x2 > y2
		}
		return aID < mID
	}
	above0, above1 := order(a0, m0, a1, m1), order(a1, m1, a0, m0)
	if above0 != above1 {
		wt = (m0 - a0) / ((a1 - a0) - (m1 - m0))
		crosses = wt > 0 && wt < 1
	}
	return wt, crosses, above0 != (crosses && wt < lo)
}

// TestForEachCrossLinesMatchesScan checks the multi-line windowed
// descent of both families against a full scan, with signatures on and
// off. Five reference lines, each with its own window, go down in one
// call. For each line, every object whose crossing lies inside the
// line's window is visited with the line's bit, and the visited objects
// above the line at the window's low edge plus the wholesale counts give
// exactly the scan's count above it there. No object is visited twice.
func TestForEachCrossLinesMatchesScan(t *testing.T) {
	ds, qs, refs := crossFixture(t)
	windows := [][2]float64{{0, 1}, {0.129, 0.871}, {0, 0.3}, {0.6, 1}, {0.45, 0.55}}
	for _, sigs := range []bool{true, false} {
		for name, sn := range crossSnapshots(t, ds, sigs) {
			wholesale := 0
			for qi, q := range qs {
				s := score.NewScorer(q, ds.Objects)
				ref := make([]struct{ m0, m1, lo, hi float64 }, len(refs[qi]))
				lines := make([]index.CrossLine, len(refs[qi]))
				for i, m := range refs[qi] {
					w := windows[(qi+i)%len(windows)]
					ref[i].m0, ref[i].m1, ref[i].lo, ref[i].hi = 1-s.SDist(m), s.TSim(m), w[0], w[1]
					lines[i] = index.NewCrossLine(ref[i].m0, ref[i].m1, w[0], w[1])
				}
				visited := map[object.ID]uint64{}
				counts := make([]int, len(lines))
				sn.ForEachCrossLines(index.NoCancel, s, lines,
					func(o *object.Object, mask uint64) {
						if _, dup := visited[o.ID]; dup {
							t.Fatalf("%s signatures %v q%d: object %d visited twice", name, sigs, qi, o.ID)
						}
						visited[o.ID] = mask
					},
					func(li, n int) { counts[li] += n; wholesale += n })
				for i, l := range ref {
					m := refs[qi][i]
					got, want := counts[i], 0
					for _, o := range ds.Objects.All() {
						if o.ID == m.ID {
							continue
						}
						wt, crosses, above := crossState(1-s.SDist(o), s.TSim(o), o.ID, l.m0, l.m1, m.ID, l.lo)
						seen := visited[o.ID]&(1<<i) != 0
						if crosses && l.lo <= wt && wt <= l.hi && !seen {
							t.Fatalf("%s signatures %v q%d line %d %+v: object %d crosses at %v but was not visited", name, sigs, qi, i, l, o.ID, wt)
						}
						if above {
							want++
						}
						if above && seen {
							got++
						}
					}
					if got != want {
						t.Fatalf("%s signatures %v q%d line %d %+v: %d above at the low edge (%d wholesale), scan %d", name, sigs, qi, i, l, got, counts[i], want)
					}
				}
			}
			if name == "kcrtree" && wholesale == 0 {
				t.Errorf("signatures %v: no subtree was counted wholesale; the fixture does not exercise above()", sigs)
			}
		}
	}
}

// TestForEachCrossOneLineFullWindow pins the one-line form. ForEachCross
// visits exactly what ForEachCrossLines visits for the same line over
// [0, 1], and both reproduce the visits and counts of the per-object
// descent this one replaced: the totals below are that descent's on the
// same fixture.
func TestForEachCrossOneLineFullWindow(t *testing.T) {
	ds, qs, refs := crossFixture(t)
	want := map[string][3]int{ // visits, sum of visited IDs, wholesale count
		"kcrtree/true":  {88318, 221030947, 0},
		"kcrtree/false": {149744, 374301090, 0},
		"settree/true":  {149744, 374301090, 0},
		"settree/false": {149744, 374301090, 0},
	}
	for _, sigs := range []bool{true, false} {
		for name, sn := range crossSnapshots(t, ds, sigs) {
			var got [3]int
			for qi, q := range qs {
				s := score.NewScorer(q, ds.Objects)
				for _, m := range refs[qi] {
					m0, m1 := 1-s.SDist(m), s.TSim(m)
					var one, lines []object.ID
					oneAbove, linesAbove := 0, 0
					sn.ForEachCross(index.NoCancel, s, m0, m1,
						func(o object.Object) { one = append(one, o.ID) },
						func(n int) { oneAbove += n })
					sn.ForEachCrossLines(index.NoCancel, s, []index.CrossLine{index.NewCrossLine(m0, m1, 0, 1)},
						func(o *object.Object, mask uint64) {
							if mask != 1 {
								t.Fatalf("%s: one line visited with mask %b", name, mask)
							}
							lines = append(lines, o.ID)
						},
						func(li, n int) { linesAbove += n })
					if !slices.Equal(one, lines) || oneAbove != linesAbove {
						t.Fatalf("%s signatures %v q%d: ForEachCross visited %d (%d above), ForEachCrossLines %d (%d above)",
							name, sigs, qi, len(one), oneAbove, len(lines), linesAbove)
					}
					got[0] += len(one)
					for _, id := range one {
						got[1] += int(id)
					}
					got[2] += oneAbove
				}
			}
			key := fmt.Sprintf("%s/%v", name, sigs)
			if got != want[key] {
				t.Errorf("%s: visits, ID sum, wholesale = %v, the per-object descent's %v", key, got, want[key])
			}
		}
	}
}

// TestForEachCrossLinesSharesDescent is the work floor of the shared
// descent: the two missing objects of a why-not session, in one
// ForEachCrossLines call over the λ = 0.3 window at wt₀ = 0.5, probe at
// most 60% of the signatures (node and leaf-entry probes together) that
// two one-line descents probe, and reach at most 60% of their nodes.
// Settling lines node by node is what makes the sharing pay: a descent
// that ran one line after the other would probe exactly as much.
func TestForEachCrossLinesSharesDescent(t *testing.T) {
	ds := testDataset(t, 20000, 21)
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 12, Seed: 22, K: 10, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	a, err := BuildWith(ds.Objects, rtree.DefaultMaxEntries, true).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := a.f.Stats()
	var sepNodes, sepProbes, oneNodes, oneProbes int64
	for _, q := range qs {
		s := a.Scorer(q)
		res := a.TopK(index.NoCancel, s, q.K+10, nil, nil)
		for j := q.K; j+1 < len(res); j += 2 {
			lines := make([]index.CrossLine, 2)
			for i, r := range res[j : j+2] {
				lines[i] = index.NewCrossLine(1-s.SDist(r.Obj), s.TSim(r.Obj), 0.129, 0.871)
			}
			st.Reset()
			for i := range lines {
				a.ForEachCrossLines(index.NoCancel, s, lines[i:i+1], func(*object.Object, uint64) {}, func(int, int) {})
			}
			sepNodes, sepProbes = sepNodes+st.NodeAccesses(), sepProbes+st.SigProbes()
			st.Reset()
			a.ForEachCrossLines(index.NoCancel, s, lines, func(*object.Object, uint64) {}, func(int, int) {})
			oneNodes, oneProbes = oneNodes+st.NodeAccesses(), oneProbes+st.SigProbes()
		}
	}
	nodes, probes := float64(oneNodes)/float64(sepNodes), float64(oneProbes)/float64(sepProbes)
	t.Logf("one descent for two lines: %d nodes, %d probes; two descents: %d nodes, %d probes (%.2f, %.2f)",
		oneNodes, oneProbes, sepNodes, sepProbes, nodes, probes)
	if nodes > 0.6 || probes > 0.6 {
		t.Errorf("one descent for two lines costs %.2f of the nodes and %.2f of the probes of two, want ≤ 0.60", nodes, probes)
	}
}

// TestTopKMatchesSetR pins what why-not refinements rely on when they
// list a refined query's top-k from the KcR-tree: its answers are the
// SetR-tree's byte for byte, found by visiting the same nodes, with
// signatures on and off, under both similarity models, and at every k
// from a session's to a refinement's enlarged one.
func TestTopKMatchesSetR(t *testing.T) {
	ds := testDataset(t, 5000, 31)
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 16, Seed: 32, K: 10, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	for _, sigs := range []bool{true, false} {
		kc, err := BuildWith(ds.Objects, 16, sigs).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		setIx := settree.BuildWith(ds.Objects, 16, sigs)
		set, err := setIx.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		type ranked struct {
			id    object.ID
			score float64
		}
		flatten := func(res []score.Result) []ranked {
			out := make([]ranked, len(res))
			for i, r := range res {
				out[i] = ranked{r.Obj.ID, r.Score}
			}
			return out
		}
		for qi, q := range qs {
			if qi%2 == 1 {
				q.Sim = score.SimDice
			}
			q.W = score.WeightsFromWt(0.1 + 0.8*float64(qi)/float64(len(qs)))
			for _, k := range []int{1, 10, 60} {
				s := kc.Scorer(q)
				kc.f.Stats().Reset()
				setIx.Stats().Reset()
				got := flatten(kc.TopK(index.NoCancel, s, k, nil, nil))
				want := flatten(set.TopK(index.NoCancel, s, k, nil, nil))
				kcNodes, setNodes := kc.f.Stats().NodeAccesses(), setIx.Stats().NodeAccesses()
				if len(got) != k || !slices.Equal(got, want) || kcNodes != setNodes {
					t.Fatalf("signatures %v q%d k=%d: KcR %v in %d nodes, SetR %v in %d", sigs, qi, k, got, kcNodes, want, setNodes)
				}
			}
		}
	}
}

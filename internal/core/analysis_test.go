package core

import (
	"math/rand"
	"testing"

	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
)

func TestWeightProfileCoversInterval(t *testing.T) {
	e, ds := testEngine(t, 300, 30)
	q, miss := prefWorkload(t, e, ds, 70, 5, 2, 1)
	steps, err := e.WeightProfile(q, miss[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("empty profile")
	}
	if steps[0].From != 0 || steps[len(steps)-1].To != 1 {
		t.Fatalf("profile does not cover (0,1): %+v", steps)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].From != steps[i-1].To {
			t.Fatalf("gap between steps %d and %d", i-1, i)
		}
		if steps[i].Rank == steps[i-1].Rank {
			t.Fatalf("adjacent steps with identical rank should be merged by events: %+v", steps)
		}
	}
	for _, st := range steps {
		if st.Rank < 1 || st.Rank > ds.Objects.Len() {
			t.Fatalf("rank %d out of range", st.Rank)
		}
	}
}

// TestWeightProfileMatchesScanRank samples wt inside each step and
// cross-checks against the brute-force rank at that weight.
func TestWeightProfileMatchesScanRank(t *testing.T) {
	e, ds := testEngine(t, 250, 31)
	rng := rand.New(rand.NewSource(32))
	for seed := int64(0); seed < 5; seed++ {
		q, miss := prefWorkload(t, e, ds, 80+seed, 4, 2, 1)
		steps, err := e.WeightProfile(q, miss[0])
		if err != nil {
			t.Fatal(err)
		}
		s := score.NewScorer(q, ds.Objects)
		for _, st := range steps {
			if st.To-st.From < 1e-9 {
				continue // interval too thin to sample robustly
			}
			wt := st.From + (st.To-st.From)*(0.25+0.5*rng.Float64())
			s2 := score.Scorer{Query: q.WithWeights(score.WeightsFromWt(wt)), MaxDist: s.MaxDist}
			want := settree.ScanRank(ds.Objects, s2, miss[0])
			if want != st.Rank {
				t.Fatalf("step [%v,%v) rank %d, scan at wt=%v says %d",
					st.From, st.To, st.Rank, wt, want)
			}
		}
	}
}

// TestWeightProfileConsistentWithAdjustPreference: the rank the
// preference optimum reports must appear in the profile at the refined
// weight's interval.
func TestWeightProfileConsistentWithAdjustPreference(t *testing.T) {
	e, ds := testEngine(t, 300, 33)
	q, miss := prefWorkload(t, e, ds, 90, 5, 2, 1)
	res, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := e.WeightProfile(q, miss[0])
	if err != nil {
		t.Fatal(err)
	}
	wt := res.Refined.W.Wt
	for _, st := range steps {
		if wt >= st.From && wt < st.To {
			if st.Rank != res.RankAfter {
				t.Fatalf("profile says rank %d at wt=%v, optimum says %d", st.Rank, wt, res.RankAfter)
			}
			return
		}
	}
	t.Fatalf("refined wt %v not covered by profile", wt)
}

func TestKeywordImpacts(t *testing.T) {
	e, ds := testEngine(t, 300, 34)
	q, miss := kwWorkload(t, e, ds, 95, 5, 2, 1)
	impacts, err := e.KeywordImpacts(q, miss)
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) == 0 {
		t.Fatal("no impacts")
	}
	// Sorted by decreasing improvement.
	for i := 1; i < len(impacts); i++ {
		if impacts[i].Improvement > impacts[i-1].Improvement {
			t.Fatal("impacts not sorted")
		}
	}
	// Each impact must agree with a direct rank computation.
	s := score.NewScorer(q, ds.Objects)
	for _, im := range impacts[:minInt(5, len(impacts))] {
		var doc = q.Doc
		if im.Add {
			doc = doc.Add(im.Keyword)
		} else {
			doc = doc.Remove(im.Keyword)
		}
		s2 := score.Scorer{Query: q.WithDoc(doc), MaxDist: s.MaxDist}
		want := settree.ScanRank(ds.Objects, s2, miss[0])
		if want != im.RankAfter {
			t.Fatalf("impact %+v: direct rank %d", im, want)
		}
	}
	// Adding a keyword of the missing object's doc must be among the
	// evaluated edits.
	m := ds.Objects.Get(miss[0])
	foundAdd := false
	for _, im := range impacts {
		if im.Add && m.Doc.Contains(im.Keyword) {
			foundAdd = true
			break
		}
	}
	if !foundAdd && m.Doc.Diff(q.Doc).Len() > 0 {
		t.Fatal("no addition from the missing object's doc evaluated")
	}
}

func TestKeywordImpactsNeverEmptyQuery(t *testing.T) {
	e, ds := testEngine(t, 200, 35)
	q, miss := kwWorkload(t, e, ds, 96, 3, 1, 1)
	impacts, err := e.KeywordImpacts(q, miss)
	if err != nil {
		t.Fatal(err)
	}
	// |q.doc| = 1: removal would empty the query and must not appear.
	for _, im := range impacts {
		if !im.Add && q.Doc.Contains(im.Keyword) && q.Doc.Len() == 1 {
			t.Fatalf("impact removes the only query keyword: %+v", im)
		}
	}
}

func TestRefineBestNeverWorseThanSingles(t *testing.T) {
	e, ds := testEngine(t, 400, 36)
	for seed := int64(0); seed < 6; seed++ {
		q, miss := kwWorkload(t, e, ds, 100+seed, 5, 2, 1)
		best, err := e.RefineBest(q, miss, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if best.Penalty > best.PreferencePenalty+1e-12 || best.Penalty > best.KeywordPenalty+1e-12 {
			t.Fatalf("best %v worse than singles (%v, %v)",
				best.Penalty, best.PreferencePenalty, best.KeywordPenalty)
		}
		// The winning refined query must revive the missing objects.
		assertRevived(t, e, best.Refined, miss)
		if best.Model.String() == "" {
			t.Fatal("empty model name")
		}
	}
}

func TestRefinementModelString(t *testing.T) {
	for _, m := range []RefinementModel{ModelPreference, ModelKeyword, ModelCombined, RefinementModel(9)} {
		if m.String() == "" {
			t.Fatal("empty model string")
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

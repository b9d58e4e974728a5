package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
)

// prefOracle computes the exact minimum-penalty preference refinement by
// brute force: enumerate every interior crossing of every missing
// object's score line with every other object's line, and evaluate the
// penalty at each candidate with full-scan rank computation.
func prefOracle(e *Engine, q score.Query, missing []object.ID, lambda float64) PreferenceResult {
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
	// Candidates step one nudge past each crossing, away from the
	// initial weight — the same semantics the sweep realizes.
	candidates := []float64{}
	for _, m := range mObjs {
		ml := lineOf(s, m)
		for _, o := range e.Collection().All() {
			if o.ID == m.ID {
				continue
			}
			if wt, ok := lineOf(s, o).crossing(ml); ok {
				if wt < q.W.Wt {
					wt -= crossingNudge
				} else {
					wt += crossingNudge
				}
				if wt > 0 && wt < 1 {
					candidates = append(candidates, wt)
				}
			}
		}
	}
	best := PreferenceResult{
		Refined: q, Penalty: lambda,
		DeltaK: rankBefore - q.K, RankBefore: rankBefore, RankAfter: rankBefore,
	}
	best.Refined.K = rankBefore
	for _, wt := range candidates {
		s2 := score.Scorer{Query: q.WithWeights(score.WeightsFromWt(wt)), MaxDist: s.MaxDist}
		worst := 0
		for _, m := range mObjs {
			if r := settree.ScanRank(e.Collection(), s2, m.ID); r > worst {
				worst = r
			}
		}
		pen, dk, dw := prefPenalty(q, lambda, rankBefore, worst, wt)
		if pen < best.Penalty-1e-15 || (math.Abs(pen-best.Penalty) <= 1e-15 && dw < best.DeltaW) {
			refined := q.WithWeights(score.WeightsFromWt(wt))
			if worst > q.K {
				refined.K = worst
			}
			best = PreferenceResult{
				Refined: refined, Penalty: pen, DeltaK: dk, DeltaW: dw,
				RankBefore: rankBefore, RankAfter: worst,
			}
		}
	}
	return best
}

// assertRevived checks the defining property of Definitions 2 and 3: the
// refined query's result contains every missing object.
func assertRevived(t *testing.T, e *Engine, refined score.Query, missing []object.ID) {
	t.Helper()
	res, err := e.TopK(refined)
	if err != nil {
		t.Fatalf("refined query invalid: %v", err)
	}
	in := map[object.ID]bool{}
	for _, r := range res {
		in[r.Obj.ID] = true
	}
	for _, id := range missing {
		if !in[id] {
			t.Fatalf("missing object %d not revived by refined query %+v", id, refined)
		}
	}
}

func prefWorkload(t *testing.T, e *Engine, ds *dataset.Dataset, seed int64, k, kw, nMiss int) (score.Query, []object.ID) {
	t.Helper()
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: seed, K: k, Keywords: kw, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	return q, missingFromResult(e, q, nMiss)
}

func TestAdjustPreferenceRevivesMissing(t *testing.T) {
	e, ds := testEngine(t, 400, 10)
	for seed := int64(0); seed < 8; seed++ {
		q, miss := prefWorkload(t, e, ds, seed, 5, 2, 2)
		res, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 0.5})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertRevived(t, e, res.Refined, miss)
		if res.RankBefore <= q.K {
			t.Fatal("rank before must exceed k")
		}
		if res.Penalty < 0 || res.Penalty > 1+1e-12 {
			t.Fatalf("penalty %v out of range", res.Penalty)
		}
	}
}

func TestAdjustPreferenceSweepMatchesOracle(t *testing.T) {
	e, ds := testEngine(t, 250, 11)
	for seed := int64(0); seed < 10; seed++ {
		q, miss := prefWorkload(t, e, ds, seed, 4, 2, 1+int(seed)%3)
		for _, lambda := range []float64{0.2, 0.5, 0.8} {
			assertPreferenceMatchesOracle(t, e, q, miss, lambda, seed)
		}
	}
	// A larger engine with three-keyword queries and two missing objects.
	e, ds = testEngine(t, 600, 12)
	for seed := int64(20); seed < 26; seed++ {
		q, miss := prefWorkload(t, e, ds, seed, 5, 3, 2)
		assertPreferenceMatchesOracle(t, e, q, miss, 0.5, seed)
	}
}

// assertPreferenceMatchesOracle checks AdjustPreference against
// prefOracle.
func assertPreferenceMatchesOracle(t *testing.T, e *Engine, q score.Query, miss []object.ID, lambda float64, seed int64) {
	t.Helper()
	want := prefOracle(e, q, miss, lambda)
	got, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Penalty-want.Penalty) > 1e-6 {
		t.Fatalf("seed %d λ=%v: penalty %v, oracle %v (wt %v vs %v)",
			seed, lambda, got.Penalty, want.Penalty, got.Refined.W, want.Refined.W)
	}
	if got.RankBefore != want.RankBefore {
		t.Fatalf("seed %d: rankBefore %d, oracle %d", seed, got.RankBefore, want.RankBefore)
	}
}

// scanCrossEvents is the full-scan reference for crossEvents: it scores
// every live object of the collection and folds its line into every
// missing object's crossings, with no index pruning.
func scanCrossEvents(c *object.Collection, s score.Scorer, mLines []scoreLine) *crossings {
	cs := &crossings{mLines: mLines, curAbove: make([]int, len(mLines))}
	for _, o := range c.All() {
		if !c.Alive(o.ID) {
			continue
		}
		line := lineOf(s, o)
		for mi, ml := range mLines {
			if o.ID != ml.id {
				cs.add(mi, line)
			}
		}
	}
	return cs
}

// TestAdjustPreferenceSweepVariantsAgree: the indexed crossing descent
// finds exactly the crossings a full scan finds — the same events as a
// multiset of (missing index, other ID) and the same starting counts of
// objects above each missing object.
func TestAdjustPreferenceSweepVariantsAgree(t *testing.T) {
	type cross struct {
		mIdx  int
		other object.ID
	}
	multiset := func(cs *crossings) map[cross]int {
		m := map[cross]int{}
		for _, ev := range cs.events {
			m[cross{ev.mIdx, ev.other.id}]++
		}
		return m
	}
	ds, err := dataset.Generate(dataset.DefaultConfig(600, 12))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds.Objects, Options{MaxEntries: 8})
	for seed := int64(20); seed < 32; seed++ {
		q, miss := prefWorkload(t, e, ds, seed, 5, 1+int(seed)%3, 1+int(seed)%3)
		v, err := e.acquire()
		if err != nil {
			t.Fatal(err)
		}
		s := setScorer(v.set, q)
		mLines := make([]scoreLine, len(miss))
		for i, id := range miss {
			mLines[i] = lineOf(s, e.Collection().Get(id))
		}
		got, err := crossEvents(context.Background(), v.kc, s, mLines)
		if err != nil {
			t.Fatal(err)
		}
		want := scanCrossEvents(e.Collection(), s, mLines)
		if len(want.events) == 0 {
			t.Fatalf("seed %d: no crossings, the comparison proves nothing", seed)
		}
		if !reflect.DeepEqual(multiset(got), multiset(want)) {
			t.Fatalf("seed %d: indexed events %v, scan %v", seed, multiset(got), multiset(want))
		}
		if !reflect.DeepEqual(got.curAbove, want.curAbove) {
			t.Fatalf("seed %d: curAbove %v, scan %v", seed, got.curAbove, want.curAbove)
		}
	}
}

func TestAdjustPreferencePenaltyDecomposition(t *testing.T) {
	e, ds := testEngine(t, 300, 14)
	q, miss := prefWorkload(t, e, ds, 40, 5, 2, 2)
	res, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	kNorm := float64(res.RankBefore - q.K)
	wNorm := math.Sqrt(1 + q.W.Ws*q.W.Ws + q.W.Wt*q.W.Wt)
	want := 0.3*float64(res.DeltaK)/kNorm + 0.7*res.DeltaW/wNorm
	if math.Abs(res.Penalty-want) > 1e-12 {
		t.Fatalf("penalty %v, recomputed %v", res.Penalty, want)
	}
	// DeltaW must match the weight vectors.
	if got := q.W.Dist(res.Refined.W); math.Abs(got-res.DeltaW) > 1e-12 {
		t.Fatalf("DeltaW %v, vectors say %v", res.DeltaW, got)
	}
	// Refined K follows the paper: max(q.k, R(M, q')).
	wantK := q.K
	if res.RankAfter > q.K {
		wantK = res.RankAfter
	}
	if res.Refined.K != wantK {
		t.Fatalf("refined K %d, want %d", res.Refined.K, wantK)
	}
}

func TestAdjustPreferenceLambdaExtremes(t *testing.T) {
	e, ds := testEngine(t, 300, 15)
	q, miss := prefWorkload(t, e, ds, 50, 5, 2, 1)
	// λ = 0: only weight movement is penalized; keeping w⃗ and enlarging
	// k costs 0, so that must be the optimum.
	res0, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Penalty != 0 || res0.DeltaW != 0 {
		t.Fatalf("λ=0: penalty %v ΔW %v; keeping weights should be free", res0.Penalty, res0.DeltaW)
	}
	assertRevived(t, e, res0.Refined, miss)
	// λ = 1: only Δk is penalized; the optimum minimizes the refined
	// rank regardless of weight movement.
	res1, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertRevived(t, e, res1.Refined, miss)
	if res1.RankAfter > res0.RankAfter {
		t.Fatalf("λ=1 should minimize rank: got %d vs λ=0's %d", res1.RankAfter, res0.RankAfter)
	}
}

func TestAdjustPreferenceInvalidInputs(t *testing.T) {
	e, ds := testEngine(t, 100, 16)
	q, miss := prefWorkload(t, e, ds, 60, 3, 2, 1)
	if _, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: -1}); err == nil {
		t.Error("negative lambda accepted")
	}
	// The cache key does not carry the algorithm: with the valid
	// question's answer cached, an unknown algorithm must still fail.
	if _, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdjustPreference(q, miss, PreferenceOptions{Lambda: 0.5, Algorithm: PreferenceAlgorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := e.AdjustPreference(q, nil, PreferenceOptions{Lambda: 0.5}); err == nil {
		t.Error("no missing objects accepted")
	}
}

func TestScoreLineGeometry(t *testing.T) {
	// f_a(wt) = 0.8 − 0.6wt; f_b(wt) = 0.2 + 0.6wt → cross at wt = 0.5.
	a := scoreLine{v0: 0.8, v1: 0.2, id: 0}
	b := scoreLine{v0: 0.2, v1: 0.8, id: 1}
	if !a.aboveNear0(b) || a.aboveNear1(b) {
		t.Fatal("endpoint orders wrong")
	}
	wt, ok := a.crossing(b)
	if !ok || math.Abs(wt-0.5) > 1e-12 {
		t.Fatalf("crossing = %v, %v", wt, ok)
	}
	// Parallel lines never cross.
	c := scoreLine{v0: 0.5, v1: -0.1, id: 2}
	if _, ok := a.crossing(c); ok {
		t.Fatal("parallel lines reported crossing")
	}
	// Identical lines tie by ID and never cross.
	d := scoreLine{v0: 0.8, v1: 0.2, id: 3}
	if _, ok := a.crossing(d); ok {
		t.Fatal("identical lines reported crossing")
	}
	if !a.aboveNear0(d) || !a.aboveNear1(d) {
		t.Fatal("identical lines: smaller ID should be above")
	}
	if d.aboveNear0(a) {
		t.Fatal("identical lines: larger ID should be below")
	}
	// Crossing exactly at an endpoint is not interior.
	ep := scoreLine{v0: 0.8, v1: 1.4, id: 4} // equal to a at wt=0
	if _, ok := ep.crossing(a); ok {
		t.Fatal("endpoint-touching lines reported interior crossing")
	}
	if !ep.aboveNear0(a) || !ep.aboveNear1(a) {
		t.Fatal("tie at 0: the line higher at 1 should be above throughout")
	}
}

// TestScoreLineEqualTSimNeverCross is the regression test for lines that
// meet exactly at wt = 1 (two objects with identical textual similarity
// and different distances). Each pair below is one where rebuilding the
// wt = 1 value as spatial + (textual − spatial) lands an ulp off the
// stored TSim, which used to put a spurious crossing at 1 − ε — a
// refinement "reviving" a missing object at a weight where it still
// ties from below. The lines must tie at 1, keep the order their
// spatial scores give over the whole open interval, and never cross.
func TestScoreLineEqualTSimNeverCross(t *testing.T) {
	pairs := []struct{ tsim, s0, s1 float64 }{
		{0.3, 0.8943617293304537, 0.09745461839911657},
		{0.2, 0.3220839705208817, 0.7211477651926741},
		{0.2, 0.0005138155161213613, 0.7360686014954314},
		{1.0 / 3, 0.915821314612957, 0.5898341850049194},
		{0.1, 0.17365584472313275, 0.5926237532124455},
		{0.1, 0.01980867032545194, 0.6450388660194482},
		{0.1, 0.7185304493527748, 0.40673677545039083},
		{0.6, 0.044990698677957075, 0.31536198151820755},
	}
	for i, p := range pairs {
		// Guard the fixture: the rebuilt wt = 1 values really disagree.
		if p.s0+(p.tsim-p.s0) == p.s1+(p.tsim-p.s1) {
			t.Fatalf("pair %d no longer reproduces the rounding", i)
		}
		l := scoreLine{v0: p.s0, v1: p.tsim, id: 0}
		m := scoreLine{v0: p.s1, v1: p.tsim, id: 1}
		for _, pair := range [][2]scoreLine{{l, m}, {m, l}} {
			x, y := pair[0], pair[1]
			if wt, ok := x.crossing(y); ok {
				t.Fatalf("pair %d: equal-TSim lines %+v, %+v cross at %v", i, x, y, wt)
			}
			want := x.v0 > y.v0
			if x.aboveNear0(y) != want || x.aboveNear1(y) != want {
				t.Fatalf("pair %d: %+v above %+v near 0/1 = %v/%v, want %v",
					i, x, y, x.aboveNear0(y), x.aboveNear1(y), want)
			}
		}
	}
}

func TestPrefPenaltyFormula(t *testing.T) {
	q := score.Query{K: 3, W: score.DefaultWeights}
	// rankBefore 8, rankAfter 5, wt 0.7.
	pen, dk, dw := prefPenalty(q, 0.5, 8, 5, 0.7)
	if dk != 2 {
		t.Fatalf("dk = %d", dk)
	}
	wantDW := math.Sqrt(2 * 0.2 * 0.2)
	if math.Abs(dw-wantDW) > 1e-12 {
		t.Fatalf("dw = %v, want %v", dw, wantDW)
	}
	wantPen := 0.5*2/5 + 0.5*wantDW/math.Sqrt(1.5)
	if math.Abs(pen-wantPen) > 1e-12 {
		t.Fatalf("penalty = %v, want %v", pen, wantPen)
	}
	// Rank already within k: Δk clamps to 0.
	if _, dk, _ := prefPenalty(q, 0.5, 8, 2, 0.5); dk != 0 {
		t.Fatalf("dk = %d, want 0", dk)
	}
}

package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/qcache"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// PreferenceAlgorithm names the preference-adjustment implementation.
// There is one: the paper's indexed sweep, the zero value.
type PreferenceAlgorithm int

// PrefSweepIndexed is the paper's algorithm [5]: the missing objects'
// score segments are intersected only with the segments the index
// proves can cross them (the "two range queries"), then a sweep with
// the rank update theorem finds the minimum-penalty intersection. Exact.
//
// Deprecated: the only algorithm; removed when benchmark/ is next edited.
const PrefSweepIndexed PreferenceAlgorithm = 0

// PreferenceOptions configures AdjustPreference.
type PreferenceOptions struct {
	// Lambda is the penalty preference λ ∈ [0, 1] of Eqn 3 between
	// enlarging k (λ side) and moving w⃗ (1−λ side). DefaultLambda is
	// the paper's default; the zero value is a legitimate λ = 0.
	Lambda float64
	// Algorithm must be the zero value, PrefSweepIndexed; any other
	// value is rejected.
	Algorithm PreferenceAlgorithm
}

// PreferenceResult is a preference-adjusted refined query (Definition 2)
// together with its penalty decomposition.
type PreferenceResult struct {
	// Refined is the refined query q′ = (loc, doc, k′, w⃗′): original
	// location and keywords, possibly enlarged k, adjusted weights.
	Refined score.Query
	// Penalty is Eqn 3 evaluated for Refined.
	Penalty float64
	// DeltaK is max(0, R(M, q′) − q.k), the k enlargement.
	DeltaK int
	// DeltaW is ‖q.w⃗ − q′.w⃗‖₂.
	DeltaW float64
	// RankBefore is R(M, q): the worst missing-object rank under the
	// initial query. RankAfter is R(M, q′) under the refined query.
	RankBefore, RankAfter int
	// Results is Refined's top-k, best first, on the snapshot the
	// refinement was found on. The caller owns it.
	Results []score.Result
	// Candidates is the number of candidate weight vectors evaluated:
	// the keep-w⃗ candidate and one per crossing group inside the
	// penalty-feasible weight window (see prefWindow). Crossings outside
	// it cannot win and are not evaluated.
	Candidates int
}

// scoreLine is one object's ranking score as a function of wt ∈ (0, 1):
// f(wt) = v0 + (v1 − v0)·wt, with v0 = 1 − SDist (the value at wt = 0)
// and v1 = TSim (the value at wt = 1). This is the 1-D form of the
// paper's segment in the 2-D weight plane (ws + wt = 1 collapses the
// plane to the wt axis). Both endpoint values are stored exactly and
// the slope is derived from them, never the other way round: rebuilding
// v1 as v0 + slope is off by an ulp often enough that two objects with
// identical TSim would compare unequal at wt = 1.
type scoreLine struct {
	v0, v1 float64
	id     object.ID
}

// lineOf returns o's score line under s. Both arguments are pointers:
// the crossing descent calls it once per visited object.
func lineOf(s *score.Scorer, o *object.Object) scoreLine {
	spatial, textual := s.Components(*o)
	return scoreLine{v0: spatial, v1: textual, id: o.ID}
}

// slope returns df/dwt.
func (l scoreLine) slope() float64 { return l.v1 - l.v0 }

// aboveNear0 reports whether l ranks above m on the open interval just
// inside wt = 0. A tie at 0 is decided by the other endpoint (the line
// higher at 1 is higher just right of 0); identical lines break by ID,
// matching score.Better.
func (l scoreLine) aboveNear0(m scoreLine) bool {
	if l.v0 != m.v0 {
		return l.v0 > m.v0
	}
	if l.v1 != m.v1 {
		return l.v1 > m.v1
	}
	return l.id < m.id
}

// aboveNear1 reports whether l ranks above m just inside wt = 1, by the
// same rule mirrored: the wt = 1 values compared exactly, a tie there
// decided by the values at 0.
func (l scoreLine) aboveNear1(m scoreLine) bool {
	if l.v1 != m.v1 {
		return l.v1 > m.v1
	}
	if l.v0 != m.v0 {
		return l.v0 > m.v0
	}
	return l.id < m.id
}

// crossing returns the interior crossing point of l and m and whether
// the two lines swap order inside (0, 1). Lines that tie at an endpoint
// keep one order over the whole open interval and never cross;
// crossings that round to the interval boundary are dropped as well.
func (l scoreLine) crossing(m scoreLine) (float64, bool) {
	if l.aboveNear0(m) == l.aboveNear1(m) {
		return 0, false
	}
	wt := (m.v0 - l.v0) / (l.slope() - m.slope())
	if !(wt > 0 && wt < 1) {
		return 0, false
	}
	return wt, true
}

// prefEvent is one crossing of a missing object's line, kept small:
// the sweep sorts thousands of them.
type prefEvent struct {
	wt       float64
	mIdx     int32     // index into the missing set
	other    object.ID // the object whose line crosses the missing object's line
	wasAbove bool      // other above missing before the crossing
}

// crossings is the sweep's input for the weight window [lo, hi]: every
// crossing of a competitor's line with a missing object's line inside
// the window, and curAbove[mi], the number of competitors above missing
// object mi just inside lo — after the crossings below lo, before those
// from lo on. Values come from newCrossings and go back through release
// once the sweep is done with them.
type crossings struct {
	mLines   []scoreLine
	lo, hi   float64
	events   []prefEvent
	curAbove []int
	// The descent's per-call state: the reference lines of one chunk of
	// at most index.MaxCrossLines missing objects, the index of its
	// first line in mLines, and the scorer the visited objects' lines
	// are built with.
	lines []index.CrossLine
	base  int
	s     score.Scorer
}

// crossingsPool recycles the events, curAbove and line buffers: a
// session's descent appends thousands of events, and growing those
// slices afresh on every request is most of the sweep's garbage.
var crossingsPool = sync.Pool{New: func() any { return new(crossings) }}

// newCrossings returns empty crossings for mLines over the window
// [lo, hi] from the pool.
func newCrossings(mLines []scoreLine, lo, hi float64) *crossings {
	c := crossingsPool.Get().(*crossings)
	c.mLines, c.lo, c.hi = mLines, lo, hi
	c.events = c.events[:0]
	c.curAbove = slices.Grow(c.curAbove[:0], len(mLines))[:len(mLines)]
	clear(c.curAbove)
	return c
}

// release returns c to the pool; c must not be used afterwards.
func (c *crossings) release() {
	c.mLines = nil
	c.s = score.Scorer{}
	crossingsPool.Put(c)
}

// sortEvents orders the events by crossing weight. Order within one
// weight does not matter: the sweep applies a whole group of equal-wt
// events before it ranks.
func (c *crossings) sortEvents() {
	slices.SortFunc(c.events, func(a, b prefEvent) int { return cmp.Compare(a.wt, b.wt) })
}

// add folds one competitor line into missing object mi's events and
// its count at the window's low edge. A crossing inside the window is
// an event; one below it has already happened at lo, so it flips the
// count instead; one above it leaves the count as it is near wt = 0.
func (c *crossings) add(mi int, line scoreLine) {
	ml := c.mLines[mi]
	above := line.aboveNear0(ml)
	if wt, ok := line.crossing(ml); ok {
		switch {
		case wt < c.lo:
			above = !above
		case wt <= c.hi:
			c.events = append(c.events, prefEvent{wt: wt, mIdx: int32(mi), other: line.id, wasAbove: above})
		}
	}
	if above {
		c.curAbove[mi]++
	}
}

// visit folds one object the descent reached into the events of every
// line of the current chunk named in mask. Missing objects are
// competitors of each other too, so only each line's own object is
// skipped.
func (c *crossings) visit(o *object.Object, mask uint64) {
	line := lineOf(&c.s, o)
	for ; mask != 0; mask &= mask - 1 {
		if mi := c.base + bits.TrailingZeros64(mask); o.ID != c.mLines[mi].id {
			c.add(mi, line)
		}
	}
}

// crossEvents builds the crossings of the missing lines inside the
// weight window [lo, hi] with one KcR-family descent for all of them
// (one per index.MaxCrossLines missing objects). The descent prunes,
// per line, the subtrees whose score bounds keep every object on one
// side of that line over the window — the index-based analogue of the
// paper's two range queries — and counts the ones above wholesale.
func crossEvents(ctx context.Context, kc index.Snapshot, s score.Scorer, mLines []scoreLine, lo, hi float64) (*crossings, error) {
	cc := index.CancelOf(ctx)
	c := newCrossings(mLines, lo, hi)
	c.s = s
	for c.base = 0; c.base < len(mLines); c.base += index.MaxCrossLines {
		c.lines = c.lines[:0]
		for _, ml := range mLines[c.base:min(len(mLines), c.base+index.MaxCrossLines)] {
			c.lines = append(c.lines, index.NewCrossLine(ml.v0, ml.v1, lo, hi))
		}
		kc.ForEachCrossLines(cc, s, c.lines,
			func(o *object.Object, mask uint64) { c.visit(o, mask) },
			func(li, count int) { c.curAbove[c.base+li] += count })
		if err := ctx.Err(); err != nil {
			// A truncated descent means missing crossing events: the
			// sweep would compute wrong ranks, so bail out here.
			c.release()
			return nil, err
		}
	}
	return c, nil
}

// AdjustPreference answers the preference-adjusted why-not query
// (Definition 2): it returns the refined query (loc, doc, k′, w⃗′) with
// minimum penalty Eqn 3 whose result contains every missing object.
func (e *Engine) AdjustPreference(q score.Query, missing []object.ID, opts PreferenceOptions) (PreferenceResult, error) {
	return e.AdjustPreferenceCtx(context.Background(), q, missing, opts)
}

// AdjustPreferenceCtx is AdjustPreference under a context: the event
// construction and every rank computation poll the context's
// cancellation signal, and a canceled adjustment returns ctx.Err()
// without caching anything. The refined query's Results come from the
// view the refinement was found on.
func (e *Engine) AdjustPreferenceCtx(ctx context.Context, q score.Query, missing []object.ID, opts PreferenceOptions) (PreferenceResult, error) {
	v, err := e.acquire()
	if err != nil {
		return PreferenceResult{}, err
	}
	res, err := e.adjustPreferenceOn(ctx, v, q, missing, opts)
	if err != nil {
		return PreferenceResult{}, err
	}
	if res.Results, err = e.refinedTopK(ctx, v, res.Refined); err != nil {
		return PreferenceResult{}, err
	}
	return res, nil
}

// adjustPreferenceOn is AdjustPreferenceCtx on an acquired view,
// without the Results: RefineBestCtx lists only the winning model's
// refined query.
func (e *Engine) adjustPreferenceOn(ctx context.Context, v engineView, q score.Query, missing []object.ID, opts PreferenceOptions) (PreferenceResult, error) {
	w, err := e.validateWhyNot(ctx, v, q, missing)
	if err != nil {
		return PreferenceResult{}, err
	}
	s, objs, rankBefore := w.s, w.objs, w.worst
	if err := validateLambda(opts.Lambda); err != nil {
		return PreferenceResult{}, err
	}
	// Checked before the cache lookup: the key does not carry the
	// algorithm, so an invalid value must not reach a cached answer.
	if opts.Algorithm != PrefSweepIndexed {
		return PreferenceResult{}, fmt.Errorf("core: unknown preference algorithm %d", opts.Algorithm)
	}
	// λ joins the missing IDs in the cache key: it changes the refined
	// query. Validation above runs on hits too, so cached and computed
	// paths reject alike.
	epoch := v.set.Epoch()
	extra := make([]uint64, 0, len(missing)+1)
	for _, id := range missing {
		extra = append(extra, uint64(id))
	}
	extra = append(extra, math.Float64bits(opts.Lambda))
	if cached, ok := e.cache.GetValue(epoch, qcache.KindPreference, q, extra); ok {
		return copyPreferenceResult(cached.(PreferenceResult)), nil
	}
	res, err := adjustBySweep(ctx, v.kc, s, objs, rankBefore, opts.Lambda)
	if err != nil {
		return PreferenceResult{}, err
	}
	e.cache.PutValue(epoch, qcache.KindPreference, q, extra, copyPreferenceResult(res))
	return res, nil
}

// copyPreferenceResult detaches the one shared slice in a
// PreferenceResult (the refined query's keyword set) so cached values
// never alias caller-owned memory in either direction.
func copyPreferenceResult(r PreferenceResult) PreferenceResult {
	r.Refined.Doc = append(vocab.KeywordSet(nil), r.Refined.Doc...)
	return r
}

// prefPenalty evaluates Eqn 3.
func prefPenalty(q score.Query, lambda float64, rankBefore, rankAfter int, wtNew float64) (penalty float64, deltaK int, deltaW float64) {
	deltaK = rankAfter - q.K
	if deltaK < 0 {
		deltaK = 0
	}
	w2 := score.WeightsFromWt(wtNew)
	deltaW = q.W.Dist(w2)
	kNorm := float64(rankBefore - q.K)
	penalty = lambda*float64(deltaK)/kNorm + (1-lambda)*deltaW/weightNorm(q.W)
	return penalty, deltaK, deltaW
}

// weightNorm is Eqn 3's normalizer of the weight movement ‖Δw⃗‖.
func weightNorm(w score.Weights) float64 {
	return math.Sqrt(1 + w.Ws*w.Ws + w.Wt*w.Wt)
}

// windowSlack widens the penalty-feasible window on both sides. It is
// far above the rounding of the window's own arithmetic and of Eqn 3,
// so every crossing whose candidate can win stays inside, with the
// neighbours within a crossingNudge of it that set its nudge.
const windowSlack = 1e-6

// prefWindow returns the penalty-feasible weight window [lo, hi] ⊆
// [0, 1]: the keep-w⃗ candidate already costs λ, and a candidate at wt
// costs at least its weight term (1−λ)·‖q.w⃗ − w⃗(wt)‖/wNorm (the same
// terms as prefPenalty), so only weights where that term is below λ can
// beat it. With a = 1 − ws and b = wt₀, ‖q.w⃗ − w⃗(x)‖² =
// 2(x − c)² + (a − b)²/2 for c = (a + b)/2, so the window is an
// interval around c, widened by windowSlack and clipped to [0, 1].
// λ = 1 costs nothing for moving and gives [0, 1]; the caller handles
// λ = 0, where no weight can win.
func prefWindow(w score.Weights, lambda float64) (lo, hi float64) {
	if lambda >= 1 {
		return 0, 1
	}
	r := lambda * weightNorm(w) / (1 - lambda)
	a, b := 1-w.Ws, w.Wt
	c := (a + b) / 2
	h := math.Sqrt(max(0, r*r/2-(a-b)*(a-b)/4))
	return max(0, c-h-windowSlack), min(1, c+h+windowSlack)
}

// crossingNudge is how far past a crossing point a candidate weight is
// placed. Ranks are piecewise constant between crossings and the rank a
// refinement is after is attained on the far side of the crossing (at
// the crossing itself, ties can resolve against the missing object), so
// the minimum-penalty weight is the crossing plus an arbitrarily small
// step away from the initial weight. The nudge realizes that step; it
// also keeps the refined query's re-evaluated scores clear of the exact
// tie, where floating point could order either way.
const crossingNudge = 1e-9

// adjustBySweep implements the exact algorithm of [5]: build the crossing
// events of every missing object's line inside the penalty-feasible
// window, sweep them in wt order maintaining each missing object's rank
// incrementally (the rank update theorem), and evaluate penalty Eqn 3 at
// every intersection, nudged one epsilon past the crossing away from the
// initial weight.
func adjustBySweep(ctx context.Context, kc index.Snapshot, s score.Scorer, objs []object.Object, rankBefore int, lambda float64) (PreferenceResult, error) {
	if lambda == 0 {
		// Moving w⃗ is all the penalty: nothing beats keeping it.
		return keepWeights(s.Query, rankBefore, lambda), nil
	}
	mLines := make([]scoreLine, len(objs))
	for i := range objs {
		mLines[i] = lineOf(&s, &objs[i])
	}
	lo, hi := prefWindow(s.Query.W, lambda)
	c, err := crossEvents(ctx, kc, s, mLines, lo, hi)
	if err != nil {
		return PreferenceResult{}, err
	}
	defer c.release()
	return sweepCrossings(s.Query, c, rankBefore, lambda), nil
}

// keepWeights is candidate 0: keep w⃗, only enlarge k to the worst
// missing rank. Its penalty is λ·1 + (1−λ)·0 = λ.
func keepWeights(q score.Query, rankBefore int, lambda float64) PreferenceResult {
	best := PreferenceResult{
		Refined:    q.WithWeights(q.W),
		Penalty:    lambda,
		DeltaK:     rankBefore - q.K,
		DeltaW:     0,
		RankBefore: rankBefore,
		RankAfter:  rankBefore,
		Candidates: 1,
	}
	best.Refined.K = rankBefore
	return best
}

// sweepCrossings is the sweep of adjustBySweep over already-built
// crossings; it sorts c.events and consumes c.curAbove. It sweeps
// c's window: the nudges of its first and last crossings stay inside
// [c.lo, c.hi].
func sweepCrossings(q score.Query, c *crossings, rankBefore int, lambda float64) PreferenceResult {
	c.sortEvents()
	mLines, events, curAbove := c.mLines, c.events, c.curAbove // curAbove: objects above m in the current interval
	best := keepWeights(q, rankBefore, lambda)

	update := func(wt float64, rankAfter int) {
		pen, dk, dw := prefPenalty(q, lambda, rankBefore, rankAfter, wt)
		better := pen < best.Penalty-1e-15 ||
			(math.Abs(pen-best.Penalty) <= 1e-15 && dw < best.DeltaW)
		if better {
			refined := q.WithWeights(score.WeightsFromWt(wt))
			if rankAfter > q.K {
				refined.K = rankAfter
			}
			best = PreferenceResult{
				Refined: refined, Penalty: pen, DeltaK: dk, DeltaW: dw,
				RankBefore: rankBefore, RankAfter: rankAfter,
				Candidates: best.Candidates,
			}
		}
	}

	// Sweep groups of events sharing one intersection wt, ascending.
	// curAbove always holds the interval counts between the previous
	// group and the current one.
	wt0 := q.W.Wt
	prevWt := c.lo
	for gi := 0; gi < len(events); {
		gj := gi
		wt := events[gi].wt
		for gj < len(events) && events[gj].wt == wt {
			gj++
		}
		nextWt := c.hi
		if gj < len(events) {
			nextWt = events[gj].wt
		}

		worstBefore := 0 // interval (prevWt, wt)
		for mi := range mLines {
			if r := 1 + curAbove[mi]; r > worstBefore {
				worstBefore = r
			}
		}
		// Apply the flips for the interval after wt.
		for _, ev := range events[gi:gj] {
			if ev.wasAbove {
				curAbove[ev.mIdx]--
			} else {
				curAbove[ev.mIdx]++
			}
		}
		worstAfter := 0 // interval (wt, nextWt)
		for mi := range mLines {
			if r := 1 + curAbove[mi]; r > worstAfter {
				worstAfter = r
			}
		}

		// The candidate weight steps just past the crossing, away from
		// the initial weight, into the interval whose rank it attains.
		if wt < wt0 {
			if cand := wt - min2(crossingNudge, (wt-prevWt)/2, wt/2); cand > 0 && cand < wt {
				best.Candidates++
				update(cand, worstBefore)
			}
		} else {
			if cand := wt + min2(crossingNudge, (nextWt-wt)/2, (1-wt)/2); cand < 1 && cand > wt {
				best.Candidates++
				update(cand, worstAfter)
			}
		}
		prevWt = wt
		gi = gj
	}
	return best
}

func min2(a, b, c float64) float64 {
	return math.Min(a, math.Min(b, c))
}

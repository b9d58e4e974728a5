package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// RankStep is one piece of a missing object's rank profile over the
// weight interval: the object holds Rank for wt ∈ [From, To).
type RankStep struct {
	From, To float64
	Rank     int
}

// WeightProfile computes the exact rank of a missing object as a step
// function of the textual weight wt ∈ (0, 1) — the ranking analysis the
// demo's explanation panel visualizes, and the raw material of the
// preference-adjustment optimum. The profile is exact between crossing
// points; the rank at each interval is the rank attained by any wt
// strictly inside it.
func (e *Engine) WeightProfile(q score.Query, missing object.ID) ([]RankStep, error) {
	return e.WeightProfileCtx(context.Background(), q, missing)
}

// WeightProfileCtx is WeightProfile under a context; the crossing
// descent polls the cancellation signal every index.CheckInterval node
// visits. The profile is computed on one acquired view, so it agrees
// with RankCtx on the same published snapshot: buffered mutations join
// it at the next refresh, not before.
func (e *Engine) WeightProfileCtx(ctx context.Context, q score.Query, missing object.ID) ([]RankStep, error) {
	v, err := e.acquire()
	if err != nil {
		return nil, err
	}
	w, err := e.validateWhyNot(ctx, v, q, []object.ID{missing})
	if err != nil {
		return nil, err
	}
	c, err := crossEvents(ctx, v.kc, w.s, []scoreLine{lineOf(&w.s, &w.objs[0])}, 0, 1)
	if err != nil {
		return nil, err
	}
	defer c.release()
	c.sortEvents()
	events, above := c.events, c.curAbove[0]

	steps := []RankStep{}
	from := 0.0
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].wt == events[i].wt {
			j++
		}
		steps = append(steps, RankStep{From: from, To: events[i].wt, Rank: 1 + above})
		for _, evt := range events[i:j] {
			if evt.wasAbove {
				above--
			} else {
				above++
			}
		}
		from = events[i].wt
		i = j
	}
	steps = append(steps, RankStep{From: from, To: 1, Rank: 1 + above})
	return steps, nil
}

// KeywordImpact reports, for one candidate single-keyword edit, the
// rank the missing objects would reach — the per-keyword analysis the
// explanation panel offers before the user commits to full adaption.
type KeywordImpact struct {
	// Keyword is the edited keyword.
	Keyword vocab.Keyword
	// Add is true for an insertion into q.doc, false for a deletion.
	Add bool
	// RankAfter is R(M, q′) under the single-edit refined query.
	RankAfter int
	// Improvement is RankBefore − RankAfter (positive = helps).
	Improvement int
}

// KeywordImpacts evaluates every single-keyword edit over the candidate
// universe q.doc ∪ M.doc and returns them sorted by decreasing rank
// improvement (ties by keyword ID). It answers the user's "which one
// keyword should I change?" directly.
func (e *Engine) KeywordImpacts(q score.Query, missing []object.ID) ([]KeywordImpact, error) {
	return e.KeywordImpactsCtx(context.Background(), q, missing)
}

// KeywordImpactsCtx is KeywordImpacts under a context; each
// single-edit rank computation polls the cancellation signal.
func (e *Engine) KeywordImpactsCtx(ctx context.Context, q score.Query, missing []object.ID) ([]KeywordImpact, error) {
	v, err := e.acquire()
	if err != nil {
		return nil, err
	}
	w, err := e.validateWhyNot(ctx, v, q, missing)
	if err != nil {
		return nil, err
	}
	s, objs, rankBefore := w.s, w.objs, w.worst
	universe := q.Doc.Union(MissingDocUnion(objs))
	cc := index.CancelOf(ctx)

	worstRank := func(doc vocab.KeywordSet) int {
		s2 := score.Scorer{Query: q.WithDoc(doc), MaxDist: s.MaxDist}
		worst := 0
		for _, m := range objs {
			if r := index.RankOf(cc, v.kc, s2, m); r > worst {
				worst = r
			}
		}
		return worst
	}

	var out []KeywordImpact
	for _, kw := range universe {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if q.Doc.Contains(kw) {
			doc := q.Doc.Remove(kw)
			if doc.Empty() {
				continue // a query must keep at least one keyword
			}
			r := worstRank(doc)
			out = append(out, KeywordImpact{Keyword: kw, Add: false, RankAfter: r, Improvement: rankBefore - r})
		} else {
			r := worstRank(q.Doc.Add(kw))
			out = append(out, KeywordImpact{Keyword: kw, Add: true, RankAfter: r, Improvement: rankBefore - r})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Improvement != out[j].Improvement {
			return out[i].Improvement > out[j].Improvement
		}
		return out[i].Keyword < out[j].Keyword
	})
	return out, nil
}

// RefinementModel tags which module produced a refinement.
type RefinementModel int

const (
	// ModelPreference is the preference-adjustment module.
	ModelPreference RefinementModel = iota
	// ModelKeyword is the keyword-adaption module.
	ModelKeyword
	// ModelCombined applies preference adjustment on top of the
	// keyword-adapted query — "users can apply the two refinement
	// functions simultaneously to find better solutions" (§3.2).
	ModelCombined
)

// String implements fmt.Stringer.
func (m RefinementModel) String() string {
	switch m {
	case ModelPreference:
		return "preference"
	case ModelKeyword:
		return "keyword"
	case ModelCombined:
		return "combined"
	default:
		return fmt.Sprintf("RefinementModel(%d)", int(m))
	}
}

// BestRefinement is the outcome of RefineBest: the winning model's
// refined query and penalty, with the losing candidates' penalties for
// the explanation panel's comparison.
type BestRefinement struct {
	Model   RefinementModel
	Refined score.Query
	// Penalty is the winning model's own penalty (Eqn 3 or Eqn 4; for
	// the combined model, the sum of the stage penalties — each stage
	// minimally modifies its own dimension).
	Penalty float64
	// PreferencePenalty and KeywordPenalty are the single-model optima,
	// reported for comparison.
	PreferencePenalty, KeywordPenalty float64
	// RankBefore and RankAfter are the worst missing ranks under the
	// initial and winning refined query.
	RankBefore, RankAfter int
	// Results is Refined's top-k, best first, on the snapshot every
	// stage ran on. The caller owns it.
	Results []score.Result
}

// RefineBest runs both refinement modules (and their composition) and
// returns the lowest-penalty refined query. The two single-model
// penalties are not directly commensurable in general — they normalize
// against different modification spaces — but both lie in [0, 1] with
// identical λ·Δk terms, which is the comparison the demo's explanation
// panel presents to the user.
func (e *Engine) RefineBest(q score.Query, missing []object.ID, lambda float64) (BestRefinement, error) {
	return e.RefineBestCtx(context.Background(), q, missing, lambda)
}

// RefineBestCtx is RefineBest under a context; every stage runs on one
// acquired view and polls the context's cancellation signal, and a
// canceled refinement returns ctx.Err().
func (e *Engine) RefineBestCtx(ctx context.Context, q score.Query, missing []object.ID, lambda float64) (BestRefinement, error) {
	v, err := e.acquire()
	if err != nil {
		return BestRefinement{}, err
	}
	pref, err := e.adjustPreferenceOn(ctx, v, q, missing, PreferenceOptions{Lambda: lambda})
	if err != nil {
		return BestRefinement{}, err
	}
	kw, err := e.adaptKeywordsOn(ctx, v, q, missing, KeywordOptions{Lambda: lambda})
	if err != nil {
		return BestRefinement{}, err
	}

	best := BestRefinement{
		Model:             ModelPreference,
		Refined:           pref.Refined,
		Penalty:           pref.Penalty,
		PreferencePenalty: pref.Penalty,
		KeywordPenalty:    kw.Penalty,
		RankBefore:        pref.RankBefore,
		RankAfter:         pref.RankAfter,
	}
	if kw.Penalty < best.Penalty {
		best.Model = ModelKeyword
		best.Refined = kw.Refined
		best.Penalty = kw.Penalty
		best.RankAfter = kw.RankAfter
		best.Results = kw.Results
	}

	// Combined: adjust the preference of the keyword-adapted query. If
	// the keyword stage already needed no k enlargement there is nothing
	// left to recover, so only try the composition when Δk > 0.
	if kw.DeltaK > 0 {
		// kw.Results lists kw.Refined.K ≥ q.K objects, so its head is
		// the adapted keywords' top-k at the user's k.
		top := kw.Results[:min(q.K, len(kw.Results))]
		stillMissing := make([]object.ID, 0, len(missing))
		for _, id := range missing {
			if listRank(top, id) == 0 {
				stillMissing = append(stillMissing, id)
			}
		}
		if len(stillMissing) > 0 {
			q2 := kw.Refined
			q2.K = q.K // re-refine from the user's k, not the enlarged one
			pref2, err := e.adjustPreferenceOn(ctx, v, q2, stillMissing, PreferenceOptions{Lambda: lambda})
			if err != nil && ctx.Err() != nil {
				return BestRefinement{}, ctx.Err()
			}
			if err == nil {
				combined := kw.Penalty - lambda*float64(kw.DeltaK)/float64(kw.RankBefore-q.K) + pref2.Penalty
				if combined < best.Penalty {
					// The weight change may push an object the keyword
					// stage had already revived back out; accept the
					// composition only if its top-k lists every missing
					// object.
					list, err := e.refinedTopK(ctx, v, pref2.Refined)
					if err != nil {
						return BestRefinement{}, err
					}
					if allListed(list, missing) {
						best.Model = ModelCombined
						best.Refined = pref2.Refined
						best.Penalty = combined
						best.RankAfter = pref2.RankAfter
						best.Results = list
					}
				}
			}
		}
	}
	if best.Model == ModelPreference {
		if best.Results, err = e.refinedTopK(ctx, v, pref.Refined); err != nil {
			return BestRefinement{}, err
		}
	}
	return best, nil
}

// allListed reports whether every listed object appears in list.
func allListed(list []score.Result, ids []object.ID) bool {
	for _, id := range ids {
		if listRank(list, id) == 0 {
			return false
		}
	}
	return true
}

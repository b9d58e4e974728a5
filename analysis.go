package yask

import (
	"context"

	"github.com/yask-engine/yask/internal/core"
	"github.com/yask-engine/yask/internal/object"
)

// RankStep is one piece of a missing object's rank profile: the object
// holds Rank for textual weights in [FromWt, ToWt).
type RankStep struct {
	FromWt, ToWt float64
	Rank         int
}

// RankProfile returns the exact rank of a missing object as a step
// function of the textual weight — the analysis behind the demo's
// explanation panel, showing the user *where* in the weight space the
// object would surface.
func (e *Engine) RankProfile(q Query, missing ObjectID) ([]RankStep, error) {
	return e.RankProfileCtx(context.Background(), q, missing)
}

// RankProfileCtx is RankProfile under a context; see TopKCtx for the
// cancellation contract.
func (e *Engine) RankProfileCtx(ctx context.Context, q Query, missing ObjectID) ([]RankStep, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	steps, err := e.core.WeightProfileCtx(ctx, sq, object.ID(missing))
	if err != nil {
		return nil, err
	}
	out := make([]RankStep, len(steps))
	for i, s := range steps {
		out[i] = RankStep{FromWt: s.From, ToWt: s.To, Rank: s.Rank}
	}
	return out, nil
}

// KeywordSuggestion is one single-keyword edit and the rank the missing
// objects would reach under it.
type KeywordSuggestion struct {
	Keyword string
	// Add is true for inserting the keyword, false for removing it.
	Add bool
	// RankAfter is the worst missing-object rank under the edit;
	// Improvement is how many positions the edit gains.
	RankAfter, Improvement int
}

// SuggestKeywords evaluates every single-keyword edit over the
// candidate universe and returns them best-first — the "which keyword
// should I change?" analysis of the explanation panel.
func (e *Engine) SuggestKeywords(q Query, missing []ObjectID) ([]KeywordSuggestion, error) {
	return e.SuggestKeywordsCtx(context.Background(), q, missing)
}

// SuggestKeywordsCtx is SuggestKeywords under a context; see TopKCtx
// for the cancellation contract.
func (e *Engine) SuggestKeywordsCtx(ctx context.Context, q Query, missing []ObjectID) ([]KeywordSuggestion, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	impacts, err := e.core.KeywordImpactsCtx(ctx, sq, toInternalIDs(missing))
	if err != nil {
		return nil, err
	}
	out := make([]KeywordSuggestion, len(impacts))
	for i, im := range impacts {
		out[i] = KeywordSuggestion{
			Keyword:     e.vocab.Word(im.Keyword),
			Add:         im.Add,
			RankAfter:   im.RankAfter,
			Improvement: im.Improvement,
		}
	}
	return out, nil
}

// BestRefinement is the outcome of WhyNotBest.
type BestRefinement struct {
	// Model names the winning refinement: "preference", "keyword", or
	// "combined".
	Model string
	// Query is the winning refined query, ready to run.
	Query Query
	// Penalty is the winner's penalty; PreferencePenalty and
	// KeywordPenalty are the single-model optima for comparison.
	Penalty, PreferencePenalty, KeywordPenalty float64
	// RankBefore/RankAfter are the worst missing ranks under the
	// initial and refined query.
	RankBefore, RankAfter int
	// Results is Query's result, computed on the same snapshot as every
	// refinement stage. It is not part of the JSON form.
	Results []Result `json:"-"`
}

// WhyNotBest runs both refinement models (and their composition, per
// the demo's "apply the two refinement functions simultaneously") and
// returns the lowest-penalty refined query.
func (e *Engine) WhyNotBest(q Query, missing []ObjectID, opts RefineOptions) (*BestRefinement, error) {
	return e.WhyNotBestCtx(context.Background(), q, missing, opts)
}

// WhyNotBestCtx is WhyNotBest under a context; see TopKCtx for the
// cancellation contract.
func (e *Engine) WhyNotBestCtx(ctx context.Context, q Query, missing []ObjectID, opts RefineOptions) (*BestRefinement, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	best, err := e.core.RefineBestCtx(ctx, sq, toInternalIDs(missing), opts.lambda())
	if err != nil {
		return nil, err
	}
	return &BestRefinement{
		Model:             best.Model.String(),
		Query:             e.publicQuery(best.Refined),
		Penalty:           best.Penalty,
		PreferencePenalty: best.PreferencePenalty,
		KeywordPenalty:    best.KeywordPenalty,
		RankBefore:        best.RankBefore,
		RankAfter:         best.RankAfter,
		Results:           e.results(best.Refined, best.Results),
	}, nil
}

// ensure core types referenced in docs stay imported even if the
// wrappers above change shape.
var _ = core.DefaultLambda

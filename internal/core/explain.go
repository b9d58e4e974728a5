package core

import (
	"context"
	"fmt"

	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/qcache"
	"github.com/yask-engine/yask/internal/score"
)

// Reason classifies why an expected object is missing from the result,
// the two causes the paper identifies (Section 1): a spatial/textual
// preference mismatch or query keywords that do not describe the object.
type Reason int

const (
	// ReasonBorderline: the object barely missed the result; neither
	// component stands out as the cause.
	ReasonBorderline Reason = iota
	// ReasonTooFar: the object's spatial distance is the dominant cause.
	ReasonTooFar
	// ReasonNotRelevant: low textual similarity to the query keywords is
	// the dominant cause.
	ReasonNotRelevant
	// ReasonBoth: both components are far behind the current results.
	ReasonBoth
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonBorderline:
		return "borderline"
	case ReasonTooFar:
		return "too-far"
	case ReasonNotRelevant:
		return "not-relevant"
	case ReasonBoth:
		return "too-far-and-not-relevant"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Explanation is the explanation generator's analysis of one missing
// object with regard to the initial query (Section 3.3, "Explanation
// Generator Module").
type Explanation struct {
	// Missing is the analyzed object.
	Missing object.Object
	// Rank is the object's true rank under the initial query; the paper
	// always reports it ("The ranking of the missing object under the
	// initial query is also provided").
	Rank int
	// Score, SDist, and TSim are the object's ranking components.
	Score, SDist, TSim float64
	// KthScore is the score of the current k-th result, the bar the
	// object failed to clear.
	KthScore float64
	// ResultAvgSDist and ResultAvgTSim are the averages over the current
	// top-k result, the baselines the classification compares against.
	ResultAvgSDist, ResultAvgTSim float64
	// Reason is the classified cause.
	Reason Reason
	// Detail is a human-readable explanation sentence.
	Detail string
	// SuggestPreference and SuggestKeyword report which refinement
	// model(s) the generator expects to help, steering the user's choice
	// between the two modules.
	SuggestPreference, SuggestKeyword bool
}

// Explain runs the explanation generator for each missing object. The
// missing objects must be absent from the initial top-k result.
func (e *Engine) Explain(q score.Query, missing []object.ID) ([]Explanation, error) {
	return e.ExplainCtx(context.Background(), q, missing)
}

// ExplainCtx is Explain under a context: the top-k and every rank
// computation poll the context's cancellation signal, and a canceled
// analysis returns ctx.Err() without caching anything.
//
// Nothing here is computed twice in a session: the missing objects'
// ranks are validateWhyNot's (cached per epoch for the preference and
// keyword follow-ups), and the initial top-k is the one the session's
// initial query left in the result cache, traversed only on a miss.
func (e *Engine) ExplainCtx(ctx context.Context, q score.Query, missing []object.ID) ([]Explanation, error) {
	// One checked view serves the whole analysis, so the top-k and
	// every rank computation agree on one consistent arena set.
	v, err := e.acquire()
	if err != nil {
		return nil, err
	}
	w, err := e.validateWhyNot(ctx, v, q, missing)
	if err != nil {
		return nil, err
	}
	sn, s := v.set, w.s
	// Cached analyses are keyed on the missing IDs as well as the query;
	// validation above runs either way, so a hit and a recompute reject
	// exactly the same inputs. Hits hand out a fresh slice: Explanation
	// values are plain data the caller may scribble on.
	epoch := sn.Epoch()
	extra := make([]uint64, len(missing))
	for i, id := range missing {
		extra[i] = uint64(id)
	}
	if cached, ok := e.cache.GetValue(epoch, qcache.KindExplain, q, extra); ok {
		return append([]Explanation(nil), cached.([]Explanation)...), nil
	}
	result, err := e.topKOn(ctx, sn, q, nil)
	if err != nil {
		return nil, err
	}
	if len(result) == 0 {
		return nil, fmt.Errorf("core: initial query has an empty result")
	}
	kth := result[len(result)-1]
	var avgSD, avgTS float64
	for _, r := range result {
		avgSD += s.SDist(r.Obj)
		avgTS += s.TSim(r.Obj)
	}
	avgSD /= float64(len(result))
	avgTS /= float64(len(result))

	out := make([]Explanation, len(w.objs))
	for i, o := range w.objs {
		sd := s.SDist(o)
		ts := s.TSim(o)
		ex := Explanation{
			Missing:        o,
			Rank:           w.ranks[i],
			Score:          s.Score(o),
			SDist:          sd,
			TSim:           ts,
			KthScore:       kth.Score,
			ResultAvgSDist: avgSD,
			ResultAvgTSim:  avgTS,
		}
		// An object is "behind" on a component when it trails the
		// result average by more than the k-th object's winning margin
		// would forgive. The thresholds compare against the average of
		// the winners: distinctly farther, or distinctly less relevant.
		const margin = 0.10
		farBehindSpace := sd > avgSD+margin
		farBehindText := ts < avgTS-margin
		switch {
		case farBehindSpace && farBehindText:
			ex.Reason = ReasonBoth
			ex.Detail = fmt.Sprintf(
				"%s is both farther away (SDist %.3f vs result avg %.3f) and less relevant to the query keywords (TSim %.3f vs avg %.3f) than the current results; it ranks %d.",
				displayName(o), sd, avgSD, ts, avgTS, ex.Rank)
		case farBehindSpace:
			ex.Reason = ReasonTooFar
			ex.Detail = fmt.Sprintf(
				"%s matches the query keywords (TSim %.3f) but is too far from the query location (SDist %.3f vs result avg %.3f); it ranks %d. Raising the weight of textual similarity can revive it.",
				displayName(o), ts, sd, avgSD, ex.Rank)
		case farBehindText:
			ex.Reason = ReasonNotRelevant
			ex.Detail = fmt.Sprintf(
				"%s is close by (SDist %.3f) but the query keywords describe it poorly (TSim %.3f vs result avg %.3f); it ranks %d. Adapting the query keywords can revive it.",
				displayName(o), sd, ts, avgTS, ex.Rank)
		default:
			ex.Reason = ReasonBorderline
			ex.Detail = fmt.Sprintf(
				"%s only barely missed the result (score %.4f vs k-th score %.4f, rank %d); a small refinement of either kind can revive it.",
				displayName(o), ex.Score, kth.Score, ex.Rank)
		}
		// Preference adjustment helps when the object wins on one
		// component (a different weighting can surface it); keyword
		// adaption helps when textual relevance is the weak component.
		ex.SuggestPreference = ex.Reason == ReasonBorderline || (farBehindSpace != farBehindText)
		ex.SuggestKeyword = ex.Reason == ReasonBorderline || farBehindText
		out[i] = ex
	}
	if err := ctx.Err(); err != nil {
		// Canceled mid-analysis: honour the cancellation even when every
		// input came from the cache, and never cache the analysis.
		return nil, err
	}
	e.cache.PutValue(epoch, qcache.KindExplain, q, extra, append([]Explanation(nil), out...))
	return out, nil
}

func displayName(o object.Object) string {
	if o.Name != "" {
		return fmt.Sprintf("%q", o.Name)
	}
	return fmt.Sprintf("object %d", o.ID)
}

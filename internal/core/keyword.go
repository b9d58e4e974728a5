package core

import (
	"context"
	"fmt"
	"math"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// KeywordAlgorithm names the keyword-adaption implementation. There is
// one: the paper's bound-and-prune, the zero value.
type KeywordAlgorithm int

// KwBoundPrune is the paper's optimized algorithm [6]: candidates are
// enumerated in increasing Δdoc order; each candidate's penalty is first
// bounded through shallow KcR-tree rank bounds and pruned against the
// best penalty seen; only survivors pay for an exact rank computation
// (itself index-pruned). Exact over the candidate space.
//
// Deprecated: the only algorithm; removed when benchmark/ is next edited.
const KwBoundPrune KeywordAlgorithm = 0

// kwBoundDepth is the KcR-tree depth of the cheap rank bound that prunes
// candidates before exact evaluation.
const kwBoundDepth = 2

// KeywordOptions configures AdaptKeywords.
type KeywordOptions struct {
	// Lambda is the penalty preference λ ∈ [0, 1] of Eqn 4 between
	// enlarging k and editing the keyword set.
	Lambda float64
	// Algorithm must be the zero value, KwBoundPrune; any other value
	// is rejected.
	Algorithm KeywordAlgorithm
	// MaxEdits caps the candidate edit distance. Zero means no cap
	// beyond the penalty floor: candidates with
	// (1−λ)·Δdoc/|q.doc ∪ M.doc| above the best seen penalty can never
	// win, which terminates enumeration early for λ < 1. At λ = 1
	// keyword edits are free and the floor never prunes, so set
	// MaxEdits explicitly there to bound the exponential candidate
	// space.
	MaxEdits int
}

// KeywordResult is a keyword-adapted refined query (Definition 3)
// together with its penalty decomposition.
type KeywordResult struct {
	// Refined is q′ = (loc, doc′, k′, w⃗): original location and
	// weights, adapted keyword set, possibly enlarged k.
	Refined score.Query
	// Penalty is Eqn 4 evaluated for Refined.
	Penalty float64
	// DeltaK is max(0, R(M, q′) − q.k).
	DeltaK int
	// DeltaDoc is the keyword edit distance between q.doc and q′.doc.
	DeltaDoc int
	// RankBefore is R(M, q); RankAfter is R(M, q′).
	RankBefore, RankAfter int
	// Added and Removed are the keyword edits q′.doc applies to q.doc.
	Added, Removed vocab.KeywordSet
	// CandidatesGenerated counts enumerated candidate keyword sets;
	// CandidatesEvaluated counts those that survived bound pruning and
	// paid for an exact rank computation.
	CandidatesGenerated, CandidatesEvaluated int
}

// AdaptKeywords answers the keyword-adapted why-not query (Definition
// 3): it returns the refined query (loc, doc′, k′, w⃗) minimizing
// penalty Eqn 4 whose result contains every missing object. The
// candidate space is the non-empty subsets of q.doc ∪ M.doc — keywords
// outside that universe appear in no missing object's document, so
// adding one strictly lowers every missing object's similarity while
// costing an edit, and can never improve the penalty.
//
// One checked cross-index view serves the whole enumeration — every
// candidate is ranked against the same consistent arena set.
func (e *Engine) AdaptKeywords(q score.Query, missing []object.ID, opts KeywordOptions) (KeywordResult, error) {
	return e.AdaptKeywordsCtx(context.Background(), q, missing, opts)
}

// AdaptKeywordsCtx is AdaptKeywords under a context: candidate rank
// bounds and exact ranks poll the context's cancellation signal, and a
// canceled adaption returns ctx.Err().
func (e *Engine) AdaptKeywordsCtx(ctx context.Context, q score.Query, missing []object.ID, opts KeywordOptions) (KeywordResult, error) {
	v, err := e.acquire()
	if err != nil {
		return KeywordResult{}, err
	}
	w, err := e.validateWhyNot(ctx, v.set, q, missing)
	if err != nil {
		return KeywordResult{}, err
	}
	s, objs, rankBefore := w.s, w.objs, w.worst
	if err := validateLambda(opts.Lambda); err != nil {
		return KeywordResult{}, err
	}
	if opts.Algorithm != KwBoundPrune {
		return KeywordResult{}, fmt.Errorf("core: unknown keyword algorithm %d", opts.Algorithm)
	}

	mDoc := MissingDocUnion(objs)
	universe := q.Doc.Union(mDoc)
	docNorm := float64(universe.Len()) // |q.doc ∪ M.doc|, the Δdoc normalizer
	kNorm := float64(rankBefore - q.K)

	removable := q.Doc              // candidates may drop any original keyword
	addable := universe.Diff(q.Doc) // and add any keyword of the universe
	maxEdits := universe.Len() + 1  // an edit distance beyond this is impossible
	if opts.MaxEdits > 0 && opts.MaxEdits < maxEdits {
		maxEdits = opts.MaxEdits
	}

	// Start from the trivial refinement: keep q.doc, enlarge k.
	best := KeywordResult{
		Refined:    q,
		Penalty:    opts.Lambda,
		DeltaK:     rankBefore - q.K,
		DeltaDoc:   0,
		RankBefore: rankBefore,
		RankAfter:  rankBefore,
	}
	best.Refined.K = rankBefore
	best.CandidatesGenerated = 1
	best.CandidatesEvaluated = 1

	cc := index.CancelOf(ctx)

	// worstRank returns R(M, q′) for candidate doc, exactly.
	worstRank := func(doc vocab.KeywordSet) int {
		s2 := score.Scorer{Query: q.WithDoc(doc), MaxDist: s.MaxDist}
		worst := 0
		for _, m := range objs {
			worst = max(worst, index.RankOf(cc, v.kc, s2, m))
		}
		return worst
	}

	// rankLowerBound returns a cheap lower bound on R(M, q′) from a
	// depth-limited KcR-tree traversal.
	rankLowerBound := func(doc vocab.KeywordSet) int {
		s2 := score.Scorer{Query: q.WithDoc(doc), MaxDist: s.MaxDist}
		worstLo := 0
		for _, m := range objs {
			refScore := s2.Score(m)
			lo, _ := v.kc.RankBounds(cc, s2, refScore, m.ID, kwBoundDepth)
			if lo+1 > worstLo {
				worstLo = lo + 1
			}
		}
		return worstLo
	}

	var ctxErr error
	evaluate := func(doc vocab.KeywordSet, deltaDoc int) {
		if ctxErr != nil {
			return
		}
		if ctxErr = ctx.Err(); ctxErr != nil {
			// Any rank computed after the trip is an undefined partial
			// count; stop scoring candidates against it.
			return
		}
		best.CandidatesGenerated++
		docPart := (1 - opts.Lambda) * float64(deltaDoc) / docNorm
		// Penalty floor: Δk ≥ 0, so docPart alone already loses ⇒ prune.
		if docPart >= best.Penalty-1e-15 {
			return
		}
		// Cheap rank lower bound ⇒ penalty lower bound.
		loDK := max(rankLowerBound(doc)-q.K, 0)
		if opts.Lambda*float64(loDK)/kNorm+docPart >= best.Penalty-1e-15 {
			return
		}
		best.CandidatesEvaluated++
		rankAfter := worstRank(doc)
		dk := rankAfter - q.K
		if dk < 0 {
			dk = 0
		}
		pen := opts.Lambda*float64(dk)/kNorm + docPart
		if pen < best.Penalty-1e-15 ||
			(math.Abs(pen-best.Penalty) <= 1e-15 && deltaDoc < best.DeltaDoc) {
			refined := q.WithDoc(doc)
			if rankAfter > q.K {
				refined.K = rankAfter
			}
			gen, eval := best.CandidatesGenerated, best.CandidatesEvaluated
			best = KeywordResult{
				Refined: refined, Penalty: pen,
				DeltaK: dk, DeltaDoc: deltaDoc,
				RankBefore: rankBefore, RankAfter: rankAfter,
				Added:               doc.Diff(q.Doc),
				Removed:             q.Doc.Diff(doc),
				CandidatesGenerated: gen, CandidatesEvaluated: eval,
			}
		}
	}

	// Enumerate candidates in increasing Δdoc = removals + additions.
	// The floor (1−λ)·Δdoc/docNorm is monotone in Δdoc, so once it
	// reaches the best penalty the enumeration can stop entirely.
	for d := 1; d <= maxEdits && ctxErr == nil; d++ {
		if (1-opts.Lambda)*float64(d)/docNorm >= best.Penalty-1e-15 {
			break
		}
		for removals := 0; removals <= d && removals <= removable.Len(); removals++ {
			additions := d - removals
			if additions > addable.Len() {
				continue
			}
			forEachSubset(removable, removals, func(rem vocab.KeywordSet) {
				kept := q.Doc.Diff(rem)
				forEachSubset(addable, additions, func(add vocab.KeywordSet) {
					doc := kept.Union(add)
					if doc.Empty() {
						return
					}
					evaluate(doc, d)
				})
			})
		}
	}
	if ctxErr != nil {
		return KeywordResult{}, ctxErr
	}
	return best, nil
}

// forEachSubset calls fn for every size-k subset of set. fn must not
// retain the argument across calls: the backing array is reused.
func forEachSubset(set vocab.KeywordSet, k int, fn func(vocab.KeywordSet)) {
	if k == 0 {
		fn(nil)
		return
	}
	if k > set.Len() {
		return
	}
	idx := make([]int, k)
	buf := make(vocab.KeywordSet, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			for i, ix := range idx {
				buf[i] = set[ix]
			}
			fn(buf)
			return
		}
		for i := start; i <= set.Len()-(k-depth); i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

// KeywordUniverse exposes the candidate keyword universe q.doc ∪ M.doc
// for a why-not question; tooling and the web UI use it to show users
// what the adapter may add.
func (e *Engine) KeywordUniverse(q score.Query, missing []object.ID) (vocab.KeywordSet, error) {
	v, err := e.acquire()
	if err != nil {
		return nil, err
	}
	w, err := e.validateWhyNot(context.Background(), v.set, q, missing)
	if err != nil {
		return nil, err
	}
	return q.Doc.Union(MissingDocUnion(w.objs)), nil
}

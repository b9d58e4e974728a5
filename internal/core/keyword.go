package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// KeywordAlgorithm names the keyword-adaption implementation. There is
// one: the paper's bound-and-prune, the zero value.
type KeywordAlgorithm int

// KwBoundPrune is the paper's optimized algorithm [6]: candidates are
// enumerated in increasing Δdoc order and pruned by the penalty floor
// (1−λ)·Δdoc/|q.doc ∪ M.doc| against the best penalty seen. A survivor
// is ranked by one top-k capped at the largest rank that could still
// beat that penalty: a missing object outside the list cannot, and one
// inside it has its exact rank, its position. Exact over the candidate
// space.
//
// Deprecated: the only algorithm; removed when benchmark/ is next edited.
const KwBoundPrune KeywordAlgorithm = 0

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
	// (1−λ)·Δdoc/|q.doc ∪ M.doc| at or above the best seen penalty can
	// never win, which ends the enumeration early for λ < 1. At λ = 1
	// keyword edits are free and the floor never prunes, so set
	// MaxEdits explicitly there to bound the exponential candidate
	// space.
	MaxEdits int
}

// KeywordResult is a keyword-adapted refined query (Definition 3)
// together with its penalty decomposition and its result list.
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
	// Results is Refined's top-k, best first, on the snapshot the
	// refinement was found on: the first Refined.K entries of the
	// winning candidate's own ranking list, or, when keeping q.doc and
	// enlarging k wins, one top-k of that snapshot. The caller owns it.
	Results []score.Result
	// CandidatesGenerated counts enumerated candidate keyword sets;
	// CandidatesEvaluated counts those that survived the penalty floor
	// and paid for a capped top-k (plus the keep-q.doc refinement).
	CandidatesGenerated, CandidatesEvaluated int
}

// kwScratch is AdaptKeywordsCtx's pooled per-call state: the ranking
// list of the candidate being evaluated, the list of the best candidate
// so far, and the candidate keyword set. A list holds up to R(M, q)
// results, so allocating the two afresh per call would be most of the
// adaption's garbage.
type kwScratch struct {
	cur, best []score.Result
	doc       vocab.KeywordSet
}

var kwScratchPool = sync.Pool{New: func() any { return new(kwScratch) }}

// release clears the lists, which point into snapshot arenas, and
// returns sc to the pool.
func (sc *kwScratch) release() {
	clear(sc.cur[:cap(sc.cur)])
	clear(sc.best[:cap(sc.best)])
	kwScratchPool.Put(sc)
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
// candidate is ranked against the same consistent arena set, and the
// returned Results come from that same set.
func (e *Engine) AdaptKeywords(q score.Query, missing []object.ID, opts KeywordOptions) (KeywordResult, error) {
	return e.AdaptKeywordsCtx(context.Background(), q, missing, opts)
}

// AdaptKeywordsCtx is AdaptKeywords under a context: every candidate's
// ranking polls the context's cancellation signal, and a canceled
// adaption returns ctx.Err().
func (e *Engine) AdaptKeywordsCtx(ctx context.Context, q score.Query, missing []object.ID, opts KeywordOptions) (KeywordResult, error) {
	v, err := e.acquire()
	if err != nil {
		return KeywordResult{}, err
	}
	return e.adaptKeywordsOn(ctx, v, q, missing, opts)
}

// adaptKeywordsOn is AdaptKeywordsCtx on an acquired view. Candidates
// are ranked on the view's KcR-family snapshot, whose top-k is the
// SetR family's byte for byte.
func (e *Engine) adaptKeywordsOn(ctx context.Context, v engineView, q score.Query, missing []object.ID, opts KeywordOptions) (KeywordResult, error) {
	w, err := e.validateWhyNot(ctx, v, q, missing)
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
	sc := kwScratchPool.Get().(*kwScratch)
	defer sc.release()

	// penalty is Eqn 4 for a candidate at edit distance Δdoc (docPart is
	// its keyword term) whose worst missing rank is rank.
	penalty := func(rank int, docPart float64) float64 {
		return opts.Lambda*float64(max(rank-q.K, 0))/kNorm + docPart
	}
	// wins is the acceptance rule. Candidates arrive in increasing Δdoc,
	// so the best one so far never has a larger Δdoc than the candidate,
	// and a rule breaking equal penalties toward the smaller Δdoc would
	// never fire: the first candidate found at a penalty keeps it.
	wins := func(pen float64) bool { return pen < best.Penalty-1e-15 }

	var ctxErr error
	evaluate := func(doc vocab.KeywordSet, deltaDoc int) {
		if ctxErr != nil {
			return
		}
		if ctxErr = ctx.Err(); ctxErr != nil {
			// Any list computed after the trip is an undefined partial
			// answer; stop scoring candidates against it.
			return
		}
		best.CandidatesGenerated++
		docPart := (1 - opts.Lambda) * float64(deltaDoc) / docNorm
		// Penalty floor: Δk ≥ 0, so docPart alone already loses ⇒ prune.
		if !wins(docPart) {
			return
		}
		// The largest rank the rule still accepts. The penalty does not
		// decrease with the rank, so every rank up to it wins and none
		// past it does; rank q.K wins because the floor passed.
		capRank := q.K
		for capRank < rankBefore && wins(penalty(capRank+1, docPart)) {
			capRank++
		}
		best.CandidatesEvaluated++
		s2 := score.Scorer{Query: q.WithDoc(doc), MaxDist: s.MaxDist}
		sc.cur = v.kc.TopK(cc, s2, capRank, nil, sc.cur[:0])
		if ctxErr = ctx.Err(); ctxErr != nil {
			return
		}
		// The list is ordered like CountBetter, by (score desc, ID asc),
		// so a missing object's position in it is its rank, and one
		// outside it ranks past capRank and loses.
		rankAfter := 0
		for i := range objs {
			r := listRank(sc.cur, objs[i].ID)
			if r == 0 {
				return
			}
			rankAfter = max(rankAfter, r)
		}
		refined := q.WithDoc(doc.Clone())
		if rankAfter > q.K {
			refined.K = rankAfter
		}
		sc.cur, sc.best = sc.best, sc.cur
		gen, eval := best.CandidatesGenerated, best.CandidatesEvaluated
		best = KeywordResult{
			Refined: refined, Penalty: penalty(rankAfter, docPart),
			DeltaK: max(rankAfter-q.K, 0), DeltaDoc: deltaDoc,
			RankBefore: rankBefore, RankAfter: rankAfter,
			Added:               doc.Diff(q.Doc),
			Removed:             q.Doc.Diff(doc),
			CandidatesGenerated: gen, CandidatesEvaluated: eval,
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
				forEachSubset(addable, additions, func(add vocab.KeywordSet) {
					sc.doc = appendCandidate(sc.doc[:0], q.Doc, rem, add)
					if sc.doc.Empty() {
						return
					}
					evaluate(sc.doc, d)
				})
			})
		}
	}
	if ctxErr != nil {
		return KeywordResult{}, ctxErr
	}
	if best.DeltaDoc == 0 {
		// Keeping q.doc won: no candidate list describes it.
		if best.Results, err = e.refinedTopK(ctx, v, best.Refined); err != nil {
			return KeywordResult{}, err
		}
		return best, nil
	}
	best.Results = slices.Clone(sc.best[:min(best.Refined.K, len(sc.best))])
	e.cache.PutTopK(v.set.Epoch(), best.Refined, best.Results)
	return best, nil
}

// listRank returns the 1-based position of id in list, or 0 when it is
// not there.
func listRank(list []score.Result, id object.ID) int {
	for i := range list {
		if list[i].Obj.ID == id {
			return i + 1
		}
	}
	return 0
}

// appendCandidate appends the candidate keyword set (base \ rem) ∪ add
// to dst in keyword order. rem ⊆ base and add is disjoint from base; all
// three are canonical.
func appendCandidate(dst, base, rem, add vocab.KeywordSet) vocab.KeywordSet {
	i, j := 0, 0
	for _, kw := range base {
		if j < len(rem) && rem[j] == kw {
			j++
			continue
		}
		for ; i < len(add) && add[i] < kw; i++ {
			dst = append(dst, add[i])
		}
		dst = append(dst, kw)
	}
	return append(dst, add[i:]...)
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
	w, err := e.validateWhyNot(context.Background(), v, q, missing)
	if err != nil {
		return nil, err
	}
	return q.Doc.Union(MissingDocUnion(w.objs)), nil
}

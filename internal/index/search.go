package index

import (
	"math"
	"slices"

	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/pqueue"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// SigCounters batches one query's signature-layer statistics so hot
// paths never touch the arena's atomic counters per node or entry; each
// family keeps one in its pooled scratch and flushes it once per
// traversal.
type SigCounters struct {
	// Probes counts signature bounds consulted, Hits the decisive ones
	// (an exact keyword set operation skipped), Exact the exact set
	// operations that ran (with signatures disabled: all of them).
	Probes, Hits, Exact int64
}

// Flush adds the counters to st and zeroes them.
//
//yask:hotpath
func (c *SigCounters) Flush(st *rtree.Stats) {
	st.AddSigCounts(c.Probes, c.Hits, c.Exact)
	c.Probes, c.Hits, c.Exact = 0, 0, 0
}

// SigScoreEntry scores one leaf entry under s, probing the entry's
// keyword signature before the exact similarity merge-walk:
//
//   - a disjoint signature AND proves TSim = 0, so the exact score is
//     returned without the walk;
//   - otherwise, if the signature's intersection upper bound caps the
//     score strictly below limit, the entry is skipped (skip = true,
//     the returned score is meaningless) — strictness preserves the
//     (score, ID) tie-break, so skipping never changes results;
//   - otherwise the exact score is computed.
//
// exactAvoided reports whether the merge-walk was avoided (either way
// above). Pass limit = math.Inf(-1) to force an exact score.
//
//yask:hotpath
func SigScoreEntry(s *score.Scorer, e *rtree.LeafEntry[object.Object], esig *vocab.Signature, qs *vocab.QuerySig, limit float64) (scv float64, skip, exactAvoided bool) {
	w := s.Query.W
	sp := w.Ws * (1 - s.SDistAt(e.Item.Loc))
	if qs.Disjoint(esig) {
		return sp, false, true
	}
	olen := len(e.Item.Doc)
	m := qs.IntersectBound(esig)
	if ub := sp + w.Wt*score.SigSimUpperBound(s.Query.Sim, m, olen, olen, olen, qs.Len); ub < limit {
		return 0, true, true
	}
	return sp + w.Wt*s.TSim(e.Item), false, false
}

// PrepareSig readies one traversal's signature state: the query
// signature (computed once, a pure stack value) and the arena's
// entry-signature column, when the family's layer is enabled and the
// arena carries columns; the zero state with use = false otherwise.
// Every traversal entry point of every family starts with this call.
//
//yask:hotpath
func PrepareSig[A any](f *rtree.Flat[object.Object, A], enabled bool, qdoc vocab.KeywordSet) (qs vocab.QuerySig, esigs []vocab.Signature, use bool) {
	if !enabled || !f.HasSigs() {
		return vocab.QuerySig{}, nil, false
	}
	return vocab.NewQuerySig(qdoc), f.EntrySigs(), true
}

// ScoreEntryCounted is the one leaf-entry scoring wrapper every
// set-scored traversal shares: SigScoreEntry through the counter
// protocol when the entry signature column is present (esigs non-nil),
// the plain exact score otherwise. Returned ok = false means the entry
// is provably strictly below limit and must be skipped. It is a plain
// function — call it from an inline closure so the closure itself can
// stay off the heap.
//
//yask:hotpath
func ScoreEntryCounted(s *score.Scorer, e *rtree.LeafEntry[object.Object], esigs []vocab.Signature, ei int32, qs *vocab.QuerySig, limit float64, ctr *SigCounters) (scv float64, ok bool) {
	if esigs != nil {
		ctr.Probes++
		scv, skip, avoided := SigScoreEntry(s, e, &esigs[ei], qs, limit)
		if avoided {
			ctr.Hits++
		} else {
			ctr.Exact++
		}
		return scv, !skip
	}
	ctr.Exact++
	return s.Score(e.Item), true
}

// DFSFrame is one PrunedDFS stack element: a node and the mask of the
// caller's questions still open for its subtree.
type DFSFrame struct {
	Node int32
	Mask uint64
}

// PrunedDFS is the one pruned depth-first traversal driver the rank
// and crossing primitives of every index family share: an explicit
// stack from the caller's pooled scratch, a per-child decision
// callback and a leaf callback receiving every reached leaf node. A
// descent may decide up to 64 questions at once (the crossing descent
// takes one per reference line; a rank descent asks one, with root
// mask 1): every frame carries the mask of questions its subtree is
// still open for, starting from root at the root node. child receives
// a child node and its parent's mask and returns the questions still
// open below it, having settled the others itself (pruned, or
// accounted for wholesale from the augmentation); a zero mask prunes
// the child. leaf receives every reached leaf with its mask. Node
// accesses are recorded into the arena's stats; the (drained) stack's
// backing storage is returned for the caller to pool.
//
// The traversal polls cc every CheckInterval node visits and stops
// early once it trips; the partial visit set is meaningless then, and
// the caller (which owns the context behind cc) must discard it.
//
//yask:hotpath
func PrunedDFS[A any](f *rtree.Flat[object.Object, A], cc Cancel, stack []DFSFrame, root uint64, leaf func(n int32, mask uint64), child func(c int32, mask uint64) uint64) []DFSFrame {
	if f.Empty() || root == 0 {
		return stack[:0]
	}
	stack = append(stack[:0], DFSFrame{Node: 0, Mask: root}) //yask:allocok(pooled scratch; grows only on a pool miss)
	accesses := int64(0)
	countdown := CheckInterval
	for len(stack) > 0 {
		if countdown--; countdown <= 0 {
			if cc.Canceled() {
				break
			}
			countdown = CheckInterval
		}
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		accesses++
		if f.IsLeaf(fr.Node) {
			leaf(fr.Node, fr.Mask)
			continue
		}
		lo, hi := f.Children(fr.Node)
		for c := lo; c < hi; c++ {
			if m := child(c, fr.Mask); m != 0 {
				stack = append(stack, DFSFrame{Node: c, Mask: m}) //yask:allocok(pooled scratch; growth is amortized across queries)
			}
		}
	}
	f.Stats().AddNodeAccesses(accesses)
	return stack[:0]
}

// NodeEntry is one best-first frontier element: a flat-arena node and
// its score upper bound.
type NodeEntry struct {
	Bound float64
	Node  int32
}

// NodeOrder orders frontier entries best bound first — the less
// function of the frontier heap every index family pools.
//
//yask:hotpath
func NodeOrder(a, b NodeEntry) bool { return a.Bound > b.Bound }

// BestFirstTopK is the one best-first top-k driver all index families
// share: a max-heap of nodes ordered by the family's admissible score
// upper bound, a bounded min-heap of the k best objects seen, and the
// shared-bound protocol for cross-partition pruning. The caller
// supplies the two family-specific ingredients — bound (node score
// upper bound) and scoreEntry (leaf-entry scoring) — plus its pooled
// heaps, which the driver drains before returning; results append to
// dst in rank order (score desc, ID asc).
//
// Both callbacks receive the pruning limit current at their call, which
// is what lets a signature-accelerated family stop short of its exact
// bound: bound(n, limit) may return any admissible upper bound when the
// result is ≥ limit, and any value < limit once a cheaper bound already
// proves the node cannot contribute (the driver discards it either
// way). scoreEntry(ei, e, limit) returns the entry's exact score, or
// ok = false to skip an entry it proved strictly below limit — entries
// at the limit must be scored, since an equal score with a smaller ID
// still wins the tie-break. Entries are addressed by arena index ei so
// families can consult per-entry signature columns, and passed by
// pointer to keep the hot loop free of large copies.
//
// A node whose bound is strictly below the pruning limit cannot
// contribute; ties must still be expanded — they can hide an
// equal-score object with a smaller ID. The limit is the local k-th
// best once the candidate heap is full, tightened by the shared
// cross-partition bound when concurrent sibling searches exchange one
// (entry skipping uses only the local k-th best, keeping per-partition
// results deterministic).
//
// The search polls cc every CheckInterval node visits and stops early
// once it trips. The candidate heap is still drained into dst (so the
// caller's pooled scratch comes back clean), but the partial ranking
// is not a valid answer — the caller must check its context and
// discard it.
//
//yask:hotpath
func BestFirstTopK[A any](
	f *rtree.Flat[object.Object, A],
	cc Cancel,
	k int,
	shared *Bound,
	nodes *pqueue.Queue[NodeEntry],
	cand *pqueue.Queue[score.Result],
	bound func(n int32, limit float64) float64,
	scoreEntry func(ei int32, e *rtree.LeafEntry[object.Object], limit float64) (float64, bool),
	dst []score.Result,
) []score.Result {
	if f.Empty() || k <= 0 {
		return dst
	}
	negInf := math.Inf(-1)
	entries := f.AllEntries()
	nodes.Push(NodeEntry{Bound: bound(0, negInf), Node: 0})
	accesses := int64(0)
	countdown := CheckInterval
	for nodes.Len() > 0 {
		if countdown--; countdown <= 0 {
			if cc.Canceled() {
				break
			}
			countdown = CheckInterval
		}
		top := nodes.Pop()
		limit := -1.0
		if cand.Len() == k {
			limit = cand.Peek().Score
		}
		if shared != nil {
			if b := shared.Load(); b > limit {
				limit = b
			}
		}
		if top.Bound < limit {
			break // no remaining node can contribute
		}
		n := top.Node
		accesses++
		if f.IsLeaf(n) {
			elimit := negInf
			eLo, eHi := f.EntryRange(n)
			for ei := eLo; ei < eHi; ei++ {
				e := &entries[ei]
				if cand.Len() == k {
					elimit = cand.Peek().Score
				}
				scv, ok := scoreEntry(ei, e, elimit)
				if !ok {
					continue
				}
				if cand.Len() < k {
					cand.Push(score.Result{Obj: e.Item, Score: scv})
				} else if w := cand.Peek(); score.Better(scv, e.Item.ID, w.Score, w.Obj.ID) {
					cand.Pop()
					cand.Push(score.Result{Obj: e.Item, Score: scv})
				}
			}
			if shared != nil && cand.Len() == k {
				// k candidates at ≥ this score exist, so the global k-th
				// best is at least it: let lagging partitions prune.
				shared.Raise(cand.Peek().Score)
			}
			continue
		}
		// The leaf pass may have raised the local k-th best past the
		// limit computed at pop time; re-tighten before fanning out.
		if cand.Len() == k && cand.Peek().Score > limit {
			limit = cand.Peek().Score
		}
		lo, hi := f.Children(n)
		for c := lo; c < hi; c++ {
			if b := bound(c, limit); b >= limit {
				nodes.Push(NodeEntry{Bound: b, Node: c})
			}
		}
	}
	f.Stats().AddNodeAccesses(accesses)
	base, n := len(dst), cand.Len()
	dst = slices.Grow(dst, n)[:base+n] //yask:allocok(result buffer; callers reuse dst across queries)
	for i := n - 1; i >= 0; i-- {
		dst[base+i] = cand.Pop()
	}
	return dst
}

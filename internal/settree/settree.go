// Package settree implements the SetR-tree of the paper (Section 3.3 and
// ref [6]): an R-tree whose every node carries the *intersection* and the
// *union* of the keyword sets of all objects indexed below it. Those two
// sets bound the Jaccard similarity of any object in the subtree to any
// query keyword set, which — combined with the spatial MinDist/MaxDist
// bounds — yields an admissible upper bound on the ranking score ST for
// the whole subtree. The paper uses exactly this structure for its
// spatial keyword top-k engine because the IR-tree of [4] cannot bound
// Jaccard similarity.
//
// The package provides the best-first top-k algorithm of [4] over this
// index, plus the rank-counting primitive (how many objects rank above a
// given score) that both why-not modules are built on. The Index
// implements index.Provider and its Arena implements index.Snapshot, so
// the engine drives it through the shared contract.
package settree

import (
	"sync"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/pqueue"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// Aug is the SetR-tree node augmentation: the intersection and union of
// all keyword sets below the node, plus the document-length range —
// the extra pair of integers turns the near-vacuous root-level Jaccard
// bound |q∩U|/|q∪I| into a useful one, because |o ∪ q.doc| is at least
// |o.doc| + |q.doc| − |q.doc ∩ U| for every object below.
type Aug struct {
	// Inter is ⋂ o.doc over all objects o under the node. Every object
	// below contains at least these keywords.
	Inter vocab.KeywordSet
	// Union is ⋃ o.doc over all objects o under the node. No object
	// below contains a keyword outside this set.
	Union vocab.KeywordSet
	// MinLen and MaxLen bound |o.doc| over the objects below.
	MinLen, MaxLen int32
}

type augmenter struct{}

func (augmenter) FromLeaf(o object.Object) Aug {
	n := int32(o.Doc.Len())
	return Aug{Inter: o.Doc, Union: o.Doc, MinLen: n, MaxLen: n}
}

// NodeSig implements rtree.KeywordSigger: the node signature covers the
// keyword union of everything below, so a query keyword absent from the
// signature is provably absent from every object in the subtree.
func (augmenter) NodeSig(a *Aug) vocab.Signature { return a.Union.Signature() }

// LeafSig implements rtree.KeywordSigger.
func (augmenter) LeafSig(o *object.Object) vocab.Signature { return o.Doc.Signature() }

func (augmenter) Merge(a, b Aug) Aug {
	out := Aug{
		Inter:  a.Inter.Intersect(b.Inter),
		Union:  a.Union.Union(b.Union),
		MinLen: a.MinLen, MaxLen: a.MaxLen,
	}
	if b.MinLen < out.MinLen {
		out.MinLen = b.MinLen
	}
	if b.MaxLen > out.MaxLen {
		out.MaxLen = b.MaxLen
	}
	return out
}

// Index is a SetR-tree over a collection of objects. Queries traverse an
// immutable Arena snapshot published through an atomic pointer, so they
// are safe for concurrent use with the mutation path (SetSignatures must
// still be called before sharing).
//
// Snapshot lifecycle: Insert and Remove mutate the underlying tree and
// record the new generation as "known" — queries keep serving the last
// published snapshot, complete and consistent, until Refresh re-freezes
// off the query path and atomically swaps it in. Mutating the tree
// directly via Tree() bypasses that bookkeeping, and every query fails
// with rtree.ErrStaleSnapshot until Refresh is called: stale answers are
// an error, never a silent wrong result.
type Index struct {
	pub  *rtree.SnapshotPublisher[object.Object, Aug]
	coll *object.Collection
	// sigs enables the keyword-signature pruning layer (default on):
	// traversals probe the arena's per-node/per-entry signature bitmaps
	// for a constant-time intersection upper bound before running the
	// exact merge-walk bounds. Answers are byte-identical either way —
	// signatures only decide when the exact computation can be skipped.
	sigs bool
	// scratch pools per-query traversal state (priority queues, DFS
	// stack) so warm queries run allocation-free.
	scratch sync.Pool
}

// Arena is one published snapshot of the index: the frozen flat arena
// together with the SDist normalization constant (the data-space
// diagonal) captured at the freeze, so scores computed against it are
// deterministic even while mutations are buffered. Arena implements
// index.Snapshot.
type Arena struct {
	ix      *Index
	f       *rtree.Flat[object.Object, Aug]
	maxDist float64
}

// searchScratch is the reusable traversal state of one query. One value
// serves one query at a time; the pool hands each concurrent query its
// own.
type searchScratch struct {
	nodes *pqueue.Queue[index.NodeEntry]
	cand  *pqueue.Queue[score.Result]
	stack []int32
	// ctr batches the query's signature-layer statistics; flushed to
	// the arena's Stats once per traversal.
	ctr index.SigCounters
}

//yask:hotpath
func (ix *Index) getScratch() *searchScratch {
	if sc, ok := ix.scratch.Get().(*searchScratch); ok { //yask:allocok(sync.Pool hit path does not allocate)
		return sc
	}
	return &searchScratch{ //yask:allocok(pool miss: one-time scratch construction, amortized across queries)
		nodes: pqueue.NewWithCapacity(index.NodeOrder, 64),  //yask:allocok(pool miss construction)
		cand:  pqueue.NewWithCapacity(score.WorstFirst, 16), //yask:allocok(pool miss construction)
	}
}

//yask:hotpath
func (ix *Index) putScratch(sc *searchScratch) {
	sc.nodes.Reset()
	sc.cand.Reset()
	ix.scratch.Put(sc) //yask:allocok(sync.Pool put does not allocate; the interface box is the pooled pointer)
}

// SetSignatures toggles the keyword-signature pruning layer (default
// on). Disabling it forces every traversal onto the exact merge-walk
// bounds — the ablation/off switch of the e12 bench and the
// equivalence suite; results are byte-identical either way. Future
// freezes also stop materializing the signature columns (arenas
// already published keep theirs, unused). It must be called before the
// index is shared.
func (ix *Index) SetSignatures(on bool) {
	ix.sigs = on
	if t := ix.pub.Tree(); t != nil {
		t.SetFreezeSigs(on)
	}
}

// Signatures reports whether the signature pruning layer is enabled.
func (ix *Index) Signatures() bool { return ix.sigs }

// Build bulk-loads a SetR-tree over the live objects of the collection
// with the given node fanout (use rtree.DefaultMaxEntries when in doubt).
func Build(c *object.Collection, maxEntries int) *Index {
	return BuildWith(c, maxEntries, true)
}

// BuildWith is Build with the signature layer pre-configured, so a
// disabled index never materializes signature columns — not even in
// the freeze that publishes the initial arena.
func BuildWith(c *object.Collection, maxEntries int, signatures bool) *Index {
	t := rtree.New[object.Object, Aug](augmenter{}, maxEntries)
	t.SetFreezeSigs(signatures)
	v := c.View()
	entries := make([]rtree.LeafEntry[object.Object], 0, v.LiveLen())
	for _, o := range v.All() {
		if !v.Alive(o.ID) {
			continue
		}
		entries = append(entries, rtree.LeafEntry[object.Object]{Rect: o.Rect(), Item: o})
	}
	t.BulkLoad(entries)
	ix := newIndex(t, c)
	ix.sigs = signatures
	return ix
}

// BuildByInsertion constructs the index by repeated insertion instead of
// bulk loading; used by tests and the index-construction benches.
func BuildByInsertion(c *object.Collection, maxEntries int) *Index {
	t := rtree.New[object.Object, Aug](augmenter{}, maxEntries)
	v := c.View()
	for _, o := range v.All() {
		if !v.Alive(o.ID) {
			continue
		}
		t.Insert(o.Rect(), o)
	}
	return newIndex(t, c)
}

func newIndex(t *rtree.Tree[object.Object, Aug], c *object.Collection) *Index {
	ix := &Index{coll: c, sigs: true}
	ix.pub = rtree.NewSnapshotPublisher(t, func(f *rtree.Flat[object.Object, Aug]) any {
		return &Arena{ix: ix, f: f, maxDist: c.MaxDist()}
	})
	return ix
}

// Builder returns an index.Builder constructing SetR-trees with the
// given fanout.
func Builder(maxEntries int) index.Builder {
	return func(c *object.Collection) index.Provider { return Build(c, maxEntries) }
}

// Flat exposes the current frozen arena without a freshness check; the
// query algorithms go through Snapshot instead.
func (ix *Index) Flat() *rtree.Flat[object.Object, Aug] { return ix.pub.Flat() }

// Snapshot returns the published arena after verifying that every tree
// mutation went through the managed path (Insert/Remove/Refresh). It
// returns a *rtree.StaleSnapshotError — matching rtree.ErrStaleSnapshot
// — when the tree was mutated directly via Tree() without a Refresh. A
// snapshot that merely lags managed mutations pending a Refresh is still
// served: it is complete and consistent, which is the live-update
// contract.
func (ix *Index) Snapshot() (*Arena, error) {
	_, p, err := ix.pub.Snapshot()
	if err != nil {
		return nil, err
	}
	return p.(*Arena), nil
}

// Acquire implements index.Provider.
func (ix *Index) Acquire() (index.Snapshot, error) {
	a, err := ix.Snapshot()
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Insert adds the object to the underlying tree through the managed
// mutation path. Queries keep serving the previous snapshot until
// Refresh publishes a new one.
func (ix *Index) Insert(o object.Object) { ix.pub.Insert(o.Rect(), o) }

// Remove deletes the object (matched by ID at its location) through the
// managed mutation path and reports whether it was present.
func (ix *Index) Remove(o object.Object) bool {
	return ix.pub.Remove(o.Rect(), func(item object.Object) bool { return item.ID == o.ID })
}

// Refresh re-freezes the tree into a new Arena and atomically publishes
// it. The freeze runs off the query path: concurrent queries keep
// traversing the old snapshot and pick up the new one on their next
// acquisition.
func (ix *Index) Refresh() { ix.pub.Refresh() }

// Collection returns the indexed collection.
func (ix *Index) Collection() *object.Collection { return ix.coll }

// Tree exposes the underlying augmented R-tree for structural inspection
// (tests, stats); nil while the index serves a mapped arena (LoadArena)
// that no mutation has thawed yet. Mutating it directly leaves the
// published snapshot stale and queries will error until Refresh.
func (ix *Index) Tree() *rtree.Tree[object.Object, Aug] { return ix.pub.Tree() }

// Stats returns the node-access statistics collector of the published
// arena (shared with the source tree when there is one).
func (ix *Index) Stats() *rtree.Stats { return ix.pub.Flat().Stats() }

// TSimUpperBound returns an upper bound on the Jaccard similarity
// between qdoc and the document of any object under a node with the
// given augmentation.
//
// For any object o in the subtree, Inter ⊆ o.doc ⊆ Union and
// MinLen ≤ |o.doc| ≤ MaxLen, so:
//
//	|o.doc ∩ q| ≤ min(|Union ∩ q|, MaxLen)
//	|o.doc ∪ q| ≥ max(|Inter ∪ q|, MinLen + |q| − |Union ∩ q|)
//
// the second denominator term because |o ∪ q| = |o.doc| + |q| − |o ∩ q|
// and the intersection cannot exceed |Union ∩ q|. The length terms are
// what keeps the bound informative near the root, where Inter is empty
// and Union covers the query.
//
// Under the Dice model the bound is 2·num / (MinLen + |q|), since the
// denominator |o.doc| + |q| is bounded by the minimum document length.
//
//yask:hotpath
func TSimUpperBound(a Aug, qdoc vocab.KeywordSet, sim score.TextSim) float64 {
	if len(qdoc) == 0 {
		return 0
	}
	// |Union ∩ q| via per-keyword binary search: |q| is tiny, Union can
	// be the whole vocabulary near the root.
	inUnion := 0
	for _, kw := range qdoc {
		if a.Union.Contains(kw) {
			inUnion++
		}
	}
	if inUnion == 0 {
		return 0
	}
	num := inUnion
	if int(a.MaxLen) < num {
		num = int(a.MaxLen)
	}
	if sim == score.SimDice {
		den := int(a.MinLen) + len(qdoc)
		if den == 0 {
			return 0
		}
		ub := 2 * float64(num) / float64(den)
		if ub > 1 {
			return 1
		}
		return ub
	}
	den := a.Inter.UnionLen(qdoc)
	if byLen := int(a.MinLen) + len(qdoc) - inUnion; byLen > den {
		den = byLen
	}
	if den < num {
		den = num
	}
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// quickTSimHi is the constant-time signature upper bound on the textual
// similarity of any object under a node, evaluated in place of the
// exact per-keyword Union walk of TSimUpperBound.
//
//yask:hotpath
func quickTSimHi(a *Aug, s *score.Scorer, qs *vocab.QuerySig, nsig *vocab.Signature) float64 {
	m := qs.IntersectBound(nsig)
	return score.SigSimUpperBound(s.Query.Sim, m, int(a.MinLen), int(a.MaxLen), len(a.Inter), qs.Len)
}

// boundAt bounds ST(o, q) for every object o under node n of arena f.
// With the signature layer active (useSig), a constant-time bound from
// the node's keyword signature is tried first: a disjoint signature
// proves the textual bound is exactly 0, and a signature bound already
// strictly below limit is returned as-is — the caller discards bounds
// below its limit, so the exact merge-walk never runs for nodes the
// cheap bound can dismiss. Bounds at or above the limit fall through to
// the exact computation, so heap ordering and results are identical to
// the signature-free traversal.
//
//yask:hotpath
func boundAt(f *rtree.Flat[object.Object, Aug], s score.Scorer, qs *vocab.QuerySig, useSig bool, n int32, limit float64, ctr *index.SigCounters) float64 {
	w := s.Query.W
	spatial := w.Ws * (1 - s.SDistRectMin(f.Rect(n)))
	a := f.Aug(n)
	if useSig {
		ctr.Probes++
		nsig := f.Sig(n)
		if qs.Disjoint(nsig) {
			ctr.Hits++
			return spatial // textual bound exactly 0
		}
		quick := spatial + w.Wt*quickTSimHi(a, &s, qs, nsig)
		if quick < limit {
			ctr.Hits++
			return quick
		}
	}
	ctr.Exact++
	return spatial + w.Wt*TSimUpperBound(*a, s.Query.Doc, s.Query.Sim)
}

// Flat exposes the underlying frozen arena for structural tests.
func (a *Arena) Flat() *rtree.Flat[object.Object, Aug] { return a.f }

// MaxDist implements index.Snapshot: the normalization constant frozen
// with this arena.
func (a *Arena) MaxDist() float64 { return a.maxDist }

// Scorer returns a scorer for q pinned to this snapshot's normalization
// constant.
func (a *Arena) Scorer(q score.Query) score.Scorer {
	return score.Scorer{Query: q, MaxDist: a.maxDist}
}

// Generation returns the tree generation the arena was frozen at.
func (a *Arena) Generation() uint64 { return a.f.Generation() }

// Epoch implements index.Snapshot: the process-wide identity the
// publisher stamped into this arena at publication.
func (a *Arena) Epoch() uint64 { return a.f.Epoch() }

// Len returns the number of indexed objects in the arena.
func (a *Arena) Len() int { return a.f.Len() }

// TopK runs the best-first spatial keyword top-k algorithm of [4] over
// the SetR-tree through the shared index.BestFirstTopK driver, with the
// SetR-tree's doc-length-tightened Jaccard bound as the node bound.
// Results come back in rank order (Definition 1 with ID tie-break).
// Fewer than k results are returned only when the collection is smaller
// than k — or when a non-nil shared bound proves the missing tail
// cannot enter the cross-partition top k.
//
//yask:hotpath
func (a *Arena) TopK(cc index.Cancel, s score.Scorer, k int, shared *index.Bound, dst []score.Result) []score.Result {
	ix, f := a.ix, a.f
	if f.Empty() || k <= 0 {
		return dst
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	qs, esigs, useSig := index.PrepareSig(f, ix.sigs, s.Query.Doc)
	dst = index.BestFirstTopK(f, cc, k, shared, sc.nodes, sc.cand,
		func(n int32, limit float64) float64 {
			return boundAt(f, s, &qs, useSig, n, limit, &sc.ctr)
		},
		func(ei int32, e *rtree.LeafEntry[object.Object], limit float64) (float64, bool) {
			return index.ScoreEntryCounted(&s, e, esigs, ei, &qs, limit, &sc.ctr)
		},
		dst)
	sc.ctr.Flush(f.Stats())
	return dst
}

// CountBetter implements index.Snapshot: the number of objects whose
// (score, ID) pair strictly dominates (refScore, tie) under scorer s.
// The traversal prunes subtrees whose score upper bound cannot beat the
// reference; it descends otherwise. The reference pair need not name an
// indexed object — an object scoring exactly refScore with ID tie never
// dominates itself, so RankOf needs no self-exclusion.
//
//yask:hotpath
func (a *Arena) CountBetter(cc index.Cancel, s score.Scorer, refScore float64, tie object.ID) int {
	ix, f := a.ix, a.f
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	qs, esigs, useSig := index.PrepareSig(f, ix.sigs, s.Query.Doc)
	entries := f.AllEntries()
	count := 0
	sc.stack = index.PrunedDFS(f, cc, sc.stack,
		func(n int32) {
			eLo, eHi := f.EntryRange(n)
			for ei := eLo; ei < eHi; ei++ {
				e := &entries[ei]
				// An entry capped strictly below refScore cannot
				// dominate the reference pair, whatever its ID.
				scv, ok := index.ScoreEntryCounted(&s, e, esigs, ei, &qs, refScore, &sc.ctr)
				if ok && score.Better(scv, e.Item.ID, refScore, tie) {
					count++
				}
			}
		},
		// A subtree whose best possible score is below the reference
		// (or ties with a larger smallest-possible ID — unknowable
		// cheaply, so only strict inequality prunes) contributes
		// nothing.
		func(c int32) bool {
			return boundAt(f, s, &qs, useSig, c, refScore, &sc.ctr) >= refScore
		})
	sc.ctr.Flush(f.Stats())
	return count
}

// RankBounds implements index.Snapshot. The SetR-tree augmentation
// carries no subtree cardinality, so depth-limited bounding cannot
// count pruned subtrees wholesale; the exact count is returned as both
// bounds regardless of maxDepth.
//
//yask:hotpath
func (a *Arena) RankBounds(cc index.Cancel, s score.Scorer, refScore float64, tie object.ID, maxDepth int) (lo, hi int) {
	n := a.CountBetter(cc, s, refScore, tie)
	return n, n
}

// RankOf returns the 1-based rank of object oid under scorer s: one plus
// the number of objects ranking strictly above it.
//
//yask:hotpath
func (a *Arena) RankOf(s score.Scorer, oid object.ID) int {
	o := a.ix.coll.Get(oid)
	return a.CountBetter(index.NoCancel, s, s.Score(o), oid) + 1
}

// ForEachCross implements index.Snapshot: it visits every object whose
// score line over wt ∈ (0, 1) is not provably strictly below the
// reference line (m0 at wt=0, m1 at wt=1). The SetR-tree has upper
// bounds only — no subtree cardinality, no similarity lower bound — so
// it never reports wholesale-above subtrees; survivors are visited
// object by object.
//
//yask:hotpath
func (a *Arena) ForEachCross(cc index.Cancel, s score.Scorer, m0, m1 float64, visit func(object.Object), above func(int)) {
	ix, f := a.ix, a.f
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	qs, _, useSig := index.PrepareSig(f, ix.sigs, s.Query.Doc)
	sc.stack = index.PrunedDFS(f, cc, sc.stack,
		func(n int32) {
			for _, e := range f.Entries(n) {
				visit(e.Item)
			}
		},
		func(c int32) bool {
			// Every line below the node is bracketed by aHi at wt=0 and
			// tHi at wt=1; below the reference at both ends means below
			// on the whole interval — prune. A node already above the
			// reference at the spatial end descends without any textual
			// work.
			aHi := 1 - s.SDistRectMin(f.Rect(c))
			if aHi >= m0 {
				return true
			}
			aug := f.Aug(c)
			if useSig {
				ctr := &sc.ctr
				ctr.Probes++
				nsig := f.Sig(c)
				if qs.Disjoint(nsig) {
					ctr.Hits++
					return !(0 < m1) // tHi exactly 0
				}
				if quick := quickTSimHi(aug, &s, &qs, nsig); quick < m1 {
					ctr.Hits++
					return false // exact tHi ≤ quick: provably below at both ends
				}
			}
			sc.ctr.Exact++
			return !(TSimUpperBound(*aug, s.Query.Doc, s.Query.Sim) < m1)
		})
	sc.ctr.Flush(f.Stats())
}

// TopK answers the spatial keyword top-k query over the current
// snapshot, building the scorer from the snapshot's normalization
// constant. It fails with rtree.ErrStaleSnapshot when the tree was
// mutated without a Refresh.
func (ix *Index) TopK(q score.Query) ([]score.Result, error) {
	return ix.TopKAppend(q, nil)
}

// TopKAppend is TopK appending results to dst, so a caller reusing its
// buffer across queries runs the warm path without allocating.
func (ix *Index) TopKAppend(q score.Query, dst []score.Result) ([]score.Result, error) {
	a, err := ix.Snapshot()
	if err != nil {
		return nil, err
	}
	return a.TopK(index.NoCancel, a.Scorer(q), q.K, nil, dst), nil
}

// TopKScorer is TopK with a caller-prepared scorer, letting the why-not
// engines re-run queries with modified weights or keywords without
// re-deriving normalization.
func (ix *Index) TopKScorer(s score.Scorer) ([]score.Result, error) {
	a, err := ix.Snapshot()
	if err != nil {
		return nil, err
	}
	return a.TopK(index.NoCancel, s, s.Query.K, nil, nil), nil
}

// CountBetter returns the number of objects whose (score, ID) pair
// strictly dominates the reference pair under scorer s. It fails with
// rtree.ErrStaleSnapshot when the tree was mutated without a Refresh.
func (ix *Index) CountBetter(s score.Scorer, refScore float64, tie object.ID) (int, error) {
	a, err := ix.Snapshot()
	if err != nil {
		return 0, err
	}
	return a.CountBetter(index.NoCancel, s, refScore, tie), nil
}

// RankOf returns the 1-based rank of object oid under scorer s. It
// fails with rtree.ErrStaleSnapshot when the tree was mutated without a
// Refresh.
func (ix *Index) RankOf(s score.Scorer, oid object.ID) (int, error) {
	a, err := ix.Snapshot()
	if err != nil {
		return 0, err
	}
	return a.RankOf(s, oid), nil
}

// ScanTopK is the brute-force oracle: score every object and select the
// top k. It delegates to index.ScanTopK, kept as an alias so the
// family's tests and benches read naturally.
func ScanTopK(c *object.Collection, q score.Query) []score.Result {
	return index.ScanTopK(c, q)
}

// ScanRank is the brute-force rank oracle matching RankOf; an alias of
// index.ScanRank.
func ScanRank(c *object.Collection, s score.Scorer, oid object.ID) int {
	return index.ScanRank(c, s, oid)
}

// Package kcrtree implements the KcR-tree (Keyword count R-tree) of the
// paper's Section 3.3, Fig. 2, and refs [6, 9]: an R-tree whose every
// node carries a keyword→count map — for each keyword in the union of
// the documents below, the number of objects below that contain it — plus
// a cnt field with the total number of objects below.
//
// From the count map, a traversal can bound the Jaccard similarity of
// any object under a node to *any* candidate query keyword set, which is
// what lets the keyword-adapted why-not algorithm bound the rank of a
// missing object under a refined keyword set without touching objects.
// Keywords present in every object below (count == cnt) form the node's
// intersection set, keywords present at all form its union set, so the
// count map strictly generalizes the SetR-tree augmentation.
//
// The Index implements index.Provider and its Arena implements
// index.Snapshot; the two-sided similarity bounds make it the family of
// choice for rank computation (CountBetter counts whole subtrees
// wholesale, RankBounds brackets ranks at bounded depth, ForEachCross
// prunes the preference sweep's event construction).
package kcrtree

import (
	"math/bits"
	"sync"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/pqueue"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// KV is one keyword count entry.
type KV struct {
	K vocab.Keyword
	N int32
}

// Counts is a keyword→count map stored as a slice sorted by keyword,
// which merges like sorted lists and stays allocation-tight — the
// in-memory analogue of the packed maps the disk layout of [6] uses.
type Counts []KV

// Get returns the count for kw, 0 if absent.
//
//yask:hotpath
func (c Counts) Get(kw vocab.Keyword) int32 {
	lo, hi := 0, len(c)
	for lo < hi {
		mid := (lo + hi) / 2
		if c[mid].K < kw {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c) && c[lo].K == kw {
		return c[lo].N
	}
	return 0
}

// merge returns the element-wise sum of two count maps.
func (c Counts) merge(d Counts) Counts {
	out := make(Counts, 0, len(c)+len(d))
	i, j := 0, 0
	for i < len(c) && j < len(d) {
		switch {
		case c[i].K == d[j].K:
			out = append(out, KV{K: c[i].K, N: c[i].N + d[j].N})
			i++
			j++
		case c[i].K < d[j].K:
			out = append(out, c[i])
			i++
		default:
			out = append(out, d[j])
			j++
		}
	}
	out = append(out, c[i:]...)
	out = append(out, d[j:]...)
	return out
}

// Aug is the KcR-tree node augmentation of Fig. 2, extended with the
// derived statistics the rank bounds need in O(1): the size of the
// implied intersection set and the document-length range of the objects
// below.
type Aug struct {
	// Counts maps each keyword under the node to the number of objects
	// below that contain it.
	Counts Counts
	// Cnt is the number of objects under the node.
	Cnt int32
	// InterLen is the number of keywords with count == Cnt (the size of
	// the implied intersection set), precomputed at build time.
	InterLen int32
	// MinLen and MaxLen bound |o.doc| over the objects below.
	MinLen, MaxLen int32
}

// Inter returns the implied intersection set: keywords every object
// below contains.
func (a Aug) Inter() vocab.KeywordSet {
	var out vocab.KeywordSet
	for _, kv := range a.Counts {
		if kv.N == a.Cnt {
			out = append(out, kv.K)
		}
	}
	return out
}

// Union returns the implied union set: all keywords below.
func (a Aug) Union() vocab.KeywordSet {
	out := make(vocab.KeywordSet, len(a.Counts))
	for i, kv := range a.Counts {
		out[i] = kv.K
	}
	return out
}

type augmenter struct{}

func (augmenter) FromLeaf(o object.Object) Aug {
	counts := make(Counts, len(o.Doc))
	for i, kw := range o.Doc {
		counts[i] = KV{K: kw, N: 1}
	}
	n := int32(len(o.Doc))
	return Aug{Counts: counts, Cnt: 1, InterLen: n, MinLen: n, MaxLen: n}
}

// NodeSig implements rtree.KeywordSigger: the node signature covers
// every keyword present below the node (the keys of the count map).
func (augmenter) NodeSig(a *Aug) vocab.Signature {
	var g vocab.Signature
	for _, kv := range a.Counts {
		g.Add(kv.K)
	}
	return g
}

// LeafSig implements rtree.KeywordSigger.
func (augmenter) LeafSig(o *object.Object) vocab.Signature { return o.Doc.Signature() }

func (augmenter) Merge(a, b Aug) Aug {
	out := Aug{
		Counts: a.Counts.merge(b.Counts),
		Cnt:    a.Cnt + b.Cnt,
		MinLen: a.MinLen, MaxLen: a.MaxLen,
	}
	if b.MinLen < out.MinLen {
		out.MinLen = b.MinLen
	}
	if b.MaxLen > out.MaxLen {
		out.MaxLen = b.MaxLen
	}
	for _, kv := range out.Counts {
		if kv.N == out.Cnt {
			out.InterLen++
		}
	}
	return out
}

// Index is a KcR-tree over a collection. Rank queries traverse an
// immutable Arena snapshot published through an atomic pointer and are
// safe for concurrent use with the managed mutation path
// (Insert/Remove/Refresh); mutating the tree directly via Tree() makes
// every query fail with rtree.ErrStaleSnapshot until Refresh.
type Index struct {
	pub  *rtree.SnapshotPublisher[object.Object, Aug]
	coll *object.Collection
	// sigs enables the keyword-signature pruning layer (default on);
	// see settree.Index. Results are byte-identical either way.
	sigs bool
	// scratch pools the traversal state of the rank and top-k passes so
	// warm queries run allocation-free.
	scratch sync.Pool
}

// Arena is one published snapshot: the frozen flat arena plus the SDist
// normalization constant captured at the freeze. It implements
// index.Snapshot.
type Arena struct {
	ix      *Index
	f       *rtree.Flat[object.Object, Aug]
	maxDist float64
}

// rankScratch is the reusable traversal state of one query.
type rankScratch struct {
	stack  []index.DFSFrame
	frames []depthFrame
	nodes  *pqueue.Queue[index.NodeEntry]
	cand   *pqueue.Queue[score.Result]
	// ctr batches the query's signature-layer statistics; flushed to
	// the arena's Stats once per traversal.
	ctr index.SigCounters
}

// depthFrame is one depth-limited DFS frame of RankBounds.
type depthFrame struct {
	node  int32
	depth int32
}

//yask:hotpath
func (ix *Index) getScratch() *rankScratch {
	if sc, ok := ix.scratch.Get().(*rankScratch); ok { //yask:allocok(sync.Pool hit path does not allocate)
		return sc
	}
	return &rankScratch{ //yask:allocok(pool miss: one-time scratch construction, amortized across queries)
		stack:  make([]index.DFSFrame, 0, 64),                //yask:allocok(pool miss construction)
		frames: make([]depthFrame, 0, 64),                    //yask:allocok(pool miss construction)
		nodes:  pqueue.NewWithCapacity(index.NodeOrder, 64),  //yask:allocok(pool miss construction)
		cand:   pqueue.NewWithCapacity(score.WorstFirst, 16), //yask:allocok(pool miss construction)
	}
}

//yask:hotpath
func (ix *Index) putScratch(sc *rankScratch) {
	sc.stack = sc.stack[:0]
	sc.frames = sc.frames[:0]
	sc.nodes.Reset()
	sc.cand.Reset()
	ix.scratch.Put(sc) //yask:allocok(sync.Pool put does not allocate; the interface box is the pooled pointer)
}

// Build bulk-loads a KcR-tree over the live objects of the collection.
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

// BuildByInsertion constructs the index by repeated insertion; used by
// tests and the index-construction benches.
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

// Builder returns an index.Builder constructing KcR-trees with the
// given fanout.
func Builder(maxEntries int) index.Builder {
	return func(c *object.Collection) index.Provider { return Build(c, maxEntries) }
}

// SetSignatures toggles the keyword-signature pruning layer (default
// on); results are byte-identical either way. Future freezes also stop
// materializing the signature columns. Must be called before the index
// is shared.
func (ix *Index) SetSignatures(on bool) {
	ix.sigs = on
	if t := ix.pub.Tree(); t != nil {
		t.SetFreezeSigs(on)
	}
}

// Signatures reports whether the signature pruning layer is enabled.
func (ix *Index) Signatures() bool { return ix.sigs }

// Flat exposes the current frozen arena without a freshness check; the
// rank algorithms go through Snapshot instead.
func (ix *Index) Flat() *rtree.Flat[object.Object, Aug] { return ix.pub.Flat() }

// Snapshot returns the published arena after verifying that every tree
// mutation went through the managed path; it fails with a
// *rtree.StaleSnapshotError on direct Tree() mutation without Refresh.
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

// Insert adds the object through the managed mutation path; queries keep
// serving the previous snapshot until Refresh.
func (ix *Index) Insert(o object.Object) { ix.pub.Insert(o.Rect(), o) }

// Remove deletes the object (matched by ID at its location) through the
// managed mutation path and reports whether it was present.
func (ix *Index) Remove(o object.Object) bool {
	return ix.pub.Remove(o.Rect(), func(item object.Object) bool { return item.ID == o.ID })
}

// Refresh re-freezes the tree and atomically publishes the new arena.
func (ix *Index) Refresh() { ix.pub.Refresh() }

// Collection returns the indexed collection.
func (ix *Index) Collection() *object.Collection { return ix.coll }

// Tree exposes the underlying augmented R-tree; nil while the index
// serves a mapped arena (LoadArena) that no mutation has thawed yet.
// Mutating it directly leaves the published snapshot stale and queries
// will error until Refresh.
func (ix *Index) Tree() *rtree.Tree[object.Object, Aug] { return ix.pub.Tree() }

// Stats returns the node-access statistics collector of the published
// arena (shared with the source tree when there is one).
func (ix *Index) Stats() *rtree.Stats { return ix.pub.Flat().Stats() }

// TSimBounds returns lower and upper bounds on the Jaccard similarity
// between qdoc and the document of any object under a node with
// augmentation a.
//
// Upper bound: an object can share at most the qdoc keywords present
// anywhere below (count > 0) and its union with qdoc has at least
// |Inter ∪ qdoc| keywords (every object contains the node intersection).
// Lower bound: an object shares at least the qdoc keywords every object
// below contains (count == cnt) and its union with qdoc has at most
// |Union ∪ qdoc| keywords.
//
//yask:hotpath
func TSimBounds(a Aug, qdoc vocab.KeywordSet, sim score.TextSim) (lo, hi float64) {
	if a.Cnt == 0 || len(qdoc) == 0 {
		return 0, 0
	}
	present, everywhere := 0, 0
	for _, kw := range qdoc {
		n := a.Counts.Get(kw)
		if n > 0 {
			present++
		}
		if n == a.Cnt {
			everywhere++
		}
	}
	if sim == score.SimDice {
		// Dice = 2|o ∩ q| / (|o| + |q|): numerator bracketed by
		// [everywhere, min(present, MaxLen)], denominator by
		// [MinLen + |q|, MaxLen + |q|].
		num := present
		if int(a.MaxLen) < num {
			num = int(a.MaxLen)
		}
		hi = 2 * float64(num) / float64(int(a.MinLen)+len(qdoc))
		if hi > 1 {
			hi = 1
		}
		lo = 2 * float64(everywhere) / float64(int(a.MaxLen)+len(qdoc))
		if lo > hi {
			lo = hi
		}
		return lo, hi
	}
	// Upper bound. |o ∩ q| ≤ min(present, MaxLen); |o ∪ q| ≥ the larger
	// of |Inter ∪ q| (every object contains the intersection set) and
	// MinLen + |q| − present (|o ∪ q| = |o.doc| + |q| − |o ∩ q|).
	num := present
	if int(a.MaxLen) < num {
		num = int(a.MaxLen)
	}
	denHi := int(a.InterLen) + len(qdoc) - everywhere // |Inter ∪ q|
	if byLen := int(a.MinLen) + len(qdoc) - present; byLen > denHi {
		denHi = byLen
	}
	if denHi < num {
		denHi = num
	}
	if num == 0 {
		hi = 0
	} else {
		hi = float64(num) / float64(denHi)
	}
	// Lower bound. |o ∩ q| ≥ everywhere; |o ∪ q| ≤ the smaller of
	// |Union ∪ q| and MaxLen + |q| − everywhere.
	denLo := len(a.Counts) + len(qdoc) - present // |Union ∪ q|
	if byLen := int(a.MaxLen) + len(qdoc) - everywhere; byLen < denLo {
		denLo = byLen
	}
	if denLo > 0 {
		lo = float64(everywhere) / float64(denLo)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// ScoreBounds returns lower and upper bounds on ST(o, q) for every
// object o under node n, under scorer s (whose query carries the —
// possibly refined — keyword set).
func (ix *Index) ScoreBounds(s score.Scorer, n *rtree.Node[object.Object, Aug]) (lo, hi float64) {
	tLo, tHi := TSimBounds(n.Aug(), s.Query.Doc, s.Query.Sim)
	w := s.Query.W
	lo = w.Ws*(1-s.SDistRectMax(n.Rect())) + w.Wt*tLo
	hi = w.Ws*(1-s.SDistRectMin(n.Rect())) + w.Wt*tHi
	return lo, hi
}

// scoreBoundsAt is ScoreBounds addressed into the flat arena.
//
//yask:hotpath
func scoreBoundsAt(f *rtree.Flat[object.Object, Aug], s score.Scorer, n int32) (lo, hi float64) {
	r := f.Rect(n)
	tLo, tHi := TSimBounds(*f.Aug(n), s.Query.Doc, s.Query.Sim)
	w := s.Query.W
	lo = w.Ws*(1-s.SDistRectMax(r)) + w.Wt*tLo
	hi = w.Ws*(1-s.SDistRectMin(r)) + w.Wt*tHi
	return lo, hi
}

// quickTSimHi is the constant-time signature upper bound on the textual
// similarity of any object under a node, evaluated in place of the
// per-keyword count-map walk of TSimBounds.
//
//yask:hotpath
func quickTSimHi(aug *Aug, s *score.Scorer, qs *vocab.QuerySig, nsig *vocab.Signature) float64 {
	m := qs.IntersectBound(nsig)
	return score.SigSimUpperBound(s.Query.Sim, m, int(aug.MinLen), int(aug.MaxLen), int(aug.InterLen), qs.Len)
}

// boundsAt is scoreBoundsAt behind the signature layer: a disjoint node
// signature yields the exact (spatial-only) bounds without the count-map
// walk, and a signature upper bound already strictly below prune — the
// caller's reject threshold — returns (0, quick), which the caller
// discards the same way it would the exact bounds (hi < prune). Only
// when the signature is indecisive does the exact walk run, so every
// caller decision is identical to the signature-free traversal.
//
//yask:hotpath
func (ix *Index) boundsAt(f *rtree.Flat[object.Object, Aug], s score.Scorer, qs *vocab.QuerySig, useSig bool, n int32, prune float64, ctr *index.SigCounters) (lo, hi float64) {
	if useSig {
		ctr.Probes++
		w := s.Query.W
		r := f.Rect(n)
		nsig := f.Sig(n)
		if qs.Disjoint(nsig) {
			// Textual bounds exactly (0, 0): spatial-only, no walk.
			ctr.Hits++
			return w.Ws * (1 - s.SDistRectMax(r)), w.Ws * (1 - s.SDistRectMin(r))
		}
		quick := w.Ws*(1-s.SDistRectMin(r)) + w.Wt*quickTSimHi(f.Aug(n), &s, qs, nsig)
		if quick < prune {
			ctr.Hits++
			return 0, quick
		}
	}
	ctr.Exact++
	return scoreBoundsAt(f, s, n)
}

// upperAt is the upper half of boundsAt, all the top-k search prunes
// on: the same float expressions, without the lower bounds it would
// discard.
//
//yask:hotpath
func upperAt(f *rtree.Flat[object.Object, Aug], s *score.Scorer, qs *vocab.QuerySig, useSig bool, n int32, limit float64, ctr *index.SigCounters) float64 {
	w := s.Query.W
	spatial := w.Ws * (1 - s.SDistRectMin(f.Rect(n)))
	if useSig {
		ctr.Probes++
		nsig := f.Sig(n)
		if qs.Disjoint(nsig) {
			ctr.Hits++
			return spatial // textual bound exactly 0
		}
		quick := spatial + w.Wt*quickTSimHi(f.Aug(n), s, qs, nsig)
		if quick < limit {
			ctr.Hits++
			return quick
		}
	}
	ctr.Exact++
	_, tHi := TSimBounds(*f.Aug(n), s.Query.Doc, s.Query.Sim)
	return spatial + w.Wt*tHi
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

// TopK implements index.Snapshot through the shared
// index.BestFirstTopK search, pruning on the upper half of the
// two-sided score bounds. Its answers and node visits are the
// SetR-tree's: the engine's top-k path uses the SetR-tree, and the
// why-not refinements rank candidates and list refined queries here.
//
//yask:hotpath
func (a *Arena) TopK(cc index.Cancel, s score.Scorer, k int, shared *index.Bound, dst []score.Result) []score.Result {
	ix, f := a.ix, a.f
	if f.Empty() || k <= 0 {
		return dst
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	qs, useSig := index.PrepareSig(f, ix.sigs, s.Query.Doc)
	dst = index.BestFirstTopK(f, cc, k, shared, sc.nodes, sc.cand, useSig,
		func(n int32, limit float64) float64 {
			return upperAt(f, &s, &qs, useSig, n, limit, &sc.ctr)
		},
		func(e *rtree.LeafEntry[object.Object], ss []vocab.Signature, i int, limit float64) (float64, bool) {
			return index.ScoreEntryCounted(&s, e, ss, i, &qs, limit, &sc.ctr)
		},
		dst)
	sc.ctr.Flush(f.Stats())
	return dst
}

// CountBetter implements index.Snapshot: the number of objects whose
// (score, ID) pair strictly dominates (refScore, tie) under scorer s.
// Subtrees whose score upper bound is below refScore are pruned;
// subtrees whose score lower bound is above refScore are counted
// wholesale via cnt without descending — the two-sided bound is what
// distinguishes the KcR-tree from the SetR-tree for rank computation.
// The reference pair need not name an indexed object: an object scoring
// exactly refScore with ID tie never dominates itself, so RankOf needs
// no self-exclusion.
//
//yask:hotpath
func (a *Arena) CountBetter(cc index.Cancel, s score.Scorer, refScore float64, tie object.ID) int {
	ix, f := a.ix, a.f
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	qs, useSig := index.PrepareSig(f, ix.sigs, s.Query.Doc)
	count := 0
	sc.stack = index.PrunedDFS(f, cc, sc.stack, 1,
		func(n int32, _ uint64) {
			es, ss := f.Entries(n), index.LeafSigs(f, useSig, n)
			for i := range es {
				e := &es[i]
				scv, ok := index.ScoreEntryCounted(&s, e, ss, i, &qs, refScore, &sc.ctr)
				if ok && score.Better(scv, e.Item.ID, refScore, tie) {
					count++
				}
			}
		},
		func(c int32, open uint64) uint64 {
			lo, hi := ix.boundsAt(f, s, &qs, useSig, c, refScore, &sc.ctr)
			if hi < refScore {
				return 0 // nothing below can beat the reference
			}
			if lo > refScore {
				count += int(f.Aug(c).Cnt) // everything below beats it
				return 0
			}
			return open
		})
	sc.ctr.Flush(f.Stats())
	return count
}

// RankOf returns the 1-based rank of object oid under scorer s: one
// plus the number of objects strictly dominating it.
//
//yask:hotpath
func (a *Arena) RankOf(s score.Scorer, oid object.ID) int {
	o := a.ix.coll.Get(oid)
	return a.CountBetter(index.NoCancel, s, s.Score(o), oid) + 1
}

// RankBounds implements index.Snapshot: bounds [lo, hi] on the count of
// objects strictly dominating the reference, by traversing at most
// maxDepth levels and bounding whole subtrees from their augmentation
// instead of descending further. With maxDepth ≥ tree height it
// degenerates to the exact CountBetter. The keyword-adaption candidate
// pruning uses shallow depths to reject refined keyword sets cheaply.
//
//yask:hotpath
func (a *Arena) RankBounds(cc index.Cancel, s score.Scorer, refScore float64, tie object.ID, maxDepth int) (lo, hi int) {
	ix, f := a.ix, a.f
	if f.Empty() {
		return 0, 0
	}
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	qs, useSig := index.PrepareSig(f, ix.sigs, s.Query.Doc)
	frames := append(sc.frames[:0], depthFrame{node: 0}) //yask:allocok(pooled scratch; grows only on a pool miss)
	accesses := int64(0)
	countdown := index.CheckInterval
	for len(frames) > 0 {
		if countdown--; countdown <= 0 {
			if cc.Canceled() {
				break
			}
			countdown = index.CheckInterval
		}
		fr := frames[len(frames)-1]
		frames = frames[:len(frames)-1]
		accesses++
		if f.IsLeaf(fr.node) {
			es, ss := f.Entries(fr.node), index.LeafSigs(f, useSig, fr.node)
			for i := range es {
				e := &es[i]
				scv, ok := index.ScoreEntryCounted(&s, e, ss, i, &qs, refScore, &sc.ctr)
				if ok && score.Better(scv, e.Item.ID, refScore, tie) {
					lo++
					hi++
				}
			}
			continue
		}
		cLo, cHi := f.Children(fr.node)
		for c := cLo; c < cHi; c++ {
			bLo, bHi := ix.boundsAt(f, s, &qs, useSig, c, refScore, &sc.ctr)
			switch {
			case bHi < refScore:
				// contributes nothing
			case bLo > refScore:
				cnt := int(f.Aug(c).Cnt)
				lo += cnt
				hi += cnt
			case int(fr.depth) >= maxDepth:
				// Unknown: between 0 and all objects below.
				hi += int(f.Aug(c).Cnt)
			default:
				frames = append(frames, depthFrame{node: c, depth: fr.depth + 1}) //yask:allocok(pooled scratch; growth is amortized across queries)
			}
		}
	}
	sc.frames = frames[:0]
	f.Stats().AddNodeAccesses(accesses)
	sc.ctr.Flush(f.Stats())
	return lo, hi
}

// ForEachCross implements index.Snapshot: ForEachCrossLines for the one
// reference line (m0 at wt = 0, m1 at wt = 1) over the whole weight
// interval.
//
//yask:hotpath
func (a *Arena) ForEachCross(cc index.Cancel, s score.Scorer, m0, m1 float64, visit func(object.Object), above func(int)) {
	line := [1]index.CrossLine{index.NewCrossLine(m0, m1, 0, 1)}
	a.ForEachCrossLines(cc, s, line[:], func(o *object.Object, _ uint64) { visit(*o) }, func(_, count int) { above(count) })
}

// ForEachCrossLines implements index.Snapshot: the event construction
// of the preference-adjustment sweep, one descent for every missing
// object's line. Each node's score bounds (a = 1 − SDist ∈ [aLo, aHi]
// at wt = 0, the similarity bounds at wt = 1) settle every line they
// keep strictly on one side of over that line's window: below drops
// the line, above reports aug.Cnt through above(i, cnt). The lines left
// open descend — the index-based analogue of the paper's two range
// queries over segment endpoints. The below rule then applies to each
// entry of a reached leaf, once for all lines, from the leaf's spatial
// bound or the entry's exact spatial score and from its entry
// signature, so an object the signature proves can never cross a line
// is not visited for it.
//
//yask:hotpath
func (a *Arena) ForEachCrossLines(cc index.Cancel, s score.Scorer, lines []index.CrossLine, visit func(o *object.Object, mask uint64), above func(line, count int)) {
	ix, f := a.ix, a.f
	sc := ix.getScratch()
	defer ix.putScratch(sc)
	qs, useSig := index.PrepareSig(f, ix.sigs, s.Query.Doc)
	sc.stack = index.PrunedDFS(f, cc, sc.stack, index.LinesMask(lines),
		func(n int32, mask uint64) {
			es := f.Entries(n)
			// The leaf's own spatial bounds hold for every entry. When
			// even its spatially worst point is not below any line at
			// similarity 0, no entry can be settled: visit them all
			// without any per-entry work.
			r := f.Rect(n)
			if !useSig || index.BelowMask(lines, mask, 1-s.SDistRectMax(r), 0) == 0 {
				for i := range es {
					visit(&es[i].Item, mask)
				}
				return
			}
			// The subtree below rule, once per entry for all lines:
			// bounded at wt = 0 by the leaf's spatial bound leafA when
			// that leaves every line of mask to settle (leafOpen, the
			// lines it is below at similarity 0), by the entry's exact
			// spatial score otherwise, and at wt = 1 by the entry's
			// signature alone (disjoint from the query: TSim = 0;
			// otherwise SigSimUpperBound). The leaf bound spares the
			// common entry its distance, and the signature is read only
			// for an entry some line can still be settled for. A line
			// settled this way is neither above the reference at its
			// window's low edge nor crosses it inside the window, so
			// visiting the entry for it would add nothing.
			leafA := 1 - s.SDistRectMin(r)
			leafOpen := index.BelowMask(lines, mask, leafA, 0)
			ss := f.LeafSigs(n)
			for i := range es {
				e := &es[i]
				ea, open := leafA, leafOpen
				if open != mask {
					ea = 1 - s.SDistAt(e.Item.Loc)
					open = index.BelowMask(lines, mask, ea, 0)
				}
				below := uint64(0)
				if open != 0 {
					sc.ctr.Probes++
					if qs.Disjoint(&ss[i]) {
						below = open
					} else {
						below = index.BelowMask(lines, open, ea, entrySimHi(&s, e, &ss[i], &qs))
					}
					if below != 0 {
						sc.ctr.Hits++
					} else {
						sc.ctr.Exact++
					}
				}
				if m := mask &^ below; m != 0 {
					visit(&e.Item, m)
				}
			}
		},
		func(c int32, mask uint64) uint64 {
			aug := f.Aug(c)
			aLo := 1 - s.SDistRectMax(f.Rect(c))
			aHi := 1 - s.SDistRectMin(f.Rect(c))
			if useSig {
				sc.ctr.Probes++
				nsig := f.Sig(c)
				if qs.Disjoint(nsig) {
					// Textual bounds exactly (0, 0).
					sc.ctr.Hits++
					mask &^= index.BelowMask(lines, mask, aHi, 0)
					up := index.AboveMask(lines, mask, aLo, 0)
					reportAbove(up, int(aug.Cnt), above)
					return mask &^ up
				}
				// Only the below rule can be decided from the upper bound
				// alone; the wholesale-above report needs the exact
				// similarity lower bound.
				if open := index.BelowMask(lines, mask, aHi, 0); open != 0 {
					mask &^= index.BelowMask(lines, open, aHi, quickTSimHi(aug, &s, &qs, nsig))
					if mask == 0 {
						sc.ctr.Hits++
						return 0
					}
				}
			}
			sc.ctr.Exact++
			tLo, tHi := TSimBounds(*aug, s.Query.Doc, s.Query.Sim)
			mask &^= index.BelowMask(lines, mask, aHi, tHi)
			up := index.AboveMask(lines, mask, aLo, tLo)
			reportAbove(up, int(aug.Cnt), above)
			return mask &^ up
		})
	sc.ctr.Flush(f.Stats())
}

// reportAbove reports a subtree of cnt objects strictly above each line
// of mask.
//
//yask:hotpath
func reportAbove(mask uint64, cnt int, above func(line, count int)) {
	for ; mask != 0; mask &= mask - 1 {
		above(bits.TrailingZeros64(mask), cnt)
	}
}

// entrySimHi bounds the similarity of one entry whose signature is not
// disjoint from the query's.
//
//yask:hotpath
func entrySimHi(s *score.Scorer, e *rtree.LeafEntry[object.Object], esig *vocab.Signature, qs *vocab.QuerySig) float64 {
	olen := len(e.Item.Doc)
	return score.SigSimUpperBound(s.Query.Sim, qs.IntersectBound(esig), olen, olen, olen, qs.Len)
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

// RankOf returns the 1-based rank of object oid under scorer s. It fails
// with rtree.ErrStaleSnapshot when the tree was mutated without a
// Refresh.
func (ix *Index) RankOf(s score.Scorer, oid object.ID) (int, error) {
	a, err := ix.Snapshot()
	if err != nil {
		return 0, err
	}
	return a.RankOf(s, oid), nil
}

// RankBounds returns bounds [lo, hi] on the count of objects ranking
// strictly above the reference, traversing at most maxDepth levels. It
// fails with rtree.ErrStaleSnapshot when the tree was mutated without a
// Refresh.
func (ix *Index) RankBounds(s score.Scorer, refScore float64, refID object.ID, maxDepth int) (lo, hi int, err error) {
	a, err := ix.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	lo, hi = a.RankBounds(index.NoCancel, s, refScore, refID, maxDepth)
	return lo, hi, nil
}

// Package rtree implements the R-tree substrate all YASK indexes are
// built on: a Guttman-style R-tree with quadratic node splitting, STR
// (sort-tile-recursive) bulk loading, deletion with re-insertion, range
// and k-nearest-neighbour search, and — the feature the paper's index
// family depends on — per-node *augmentation*.
//
// An Augmenter folds leaf items into a per-node summary A that is
// maintained through inserts, deletes, splits, and bulk loads. The
// SetR-tree stores the intersection and union of the keyword sets below a
// node, and the KcR-tree stores a keyword→count map plus an object count
// (Fig. 2 of the paper). Each of those indexes is this tree with a different Augmenter plus its
// own query algorithms over the exposed node structure.
//
// The tree is safe for concurrent readers once construction and mutation
// have finished; mutating methods must be externally serialized.
package rtree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/yask-engine/yask/internal/geo"
)

// Augmenter computes and combines per-node summaries of type A over leaf
// items of type L. Implementations must be pure: results may be retained
// and must not alias mutable caller state.
type Augmenter[L, A any] interface {
	// FromLeaf returns the summary of a single leaf item.
	FromLeaf(item L) A
	// Merge combines two summaries. It must be associative and
	// commutative so that fold order does not matter: Insert folds a new
	// item's summary into each node on its path instead of re-merging
	// the node's content, and relies on the result being the same. It
	// must not modify a or b, which frozen snapshots may share.
	Merge(a, b A) A
}

// None is the augmentation type of a plain (un-augmented) R-tree.
type None struct{}

type noAug[L any] struct{}

func (noAug[L]) FromLeaf(L) None      { return None{} }
func (noAug[L]) Merge(_, _ None) None { return None{} }

// NoAug returns an Augmenter that maintains no per-node summary; use it
// for a plain spatial R-tree.
func NoAug[L any]() Augmenter[L, None] { return noAug[L]{} }

// LeafEntry is one item stored in a leaf node together with its MBR (a
// degenerate rectangle for point objects).
type LeafEntry[L any] struct {
	Rect geo.Rect
	Item L
}

// Stats counts node visits during queries. Node accesses are the classic
// proxy for I/O cost in the disk-resident indexes of the paper; the
// benches report them alongside wall-clock time. It also tracks the
// keyword-signature pruning layer: probes (signature bounds consulted),
// hits (exact keyword set operations the signature made unnecessary),
// and the exact set operations that still ran. Counters are atomic so
// concurrent readers can share a tree; traversals batch their counts
// locally and flush once per query.
type Stats struct {
	nodeAccesses atomic.Int64
	sigProbes    atomic.Int64
	sigHits      atomic.Int64
	exactSetOps  atomic.Int64
}

// AddNodeAccesses records n node visits. Exported so that the index
// packages' custom traversals contribute to the same counter as the
// built-in queries.
//
//yask:hotpath
func (s *Stats) AddNodeAccesses(n int64) { s.nodeAccesses.Add(n) }

// NodeAccesses returns the number of node visits recorded so far.
func (s *Stats) NodeAccesses() int64 { return s.nodeAccesses.Load() }

// AddSigCounts records one query's signature-layer activity: probes
// signature bounds consulted, of which hits were decisive (the exact
// keyword set operation was skipped), plus exact set operations
// (merge-walks, per-keyword augmentation walks) that ran.
//
//yask:hotpath
func (s *Stats) AddSigCounts(probes, hits, exact int64) {
	if probes != 0 {
		s.sigProbes.Add(probes)
	}
	if hits != 0 {
		s.sigHits.Add(hits)
	}
	if exact != 0 {
		s.exactSetOps.Add(exact)
	}
}

// SigProbes returns the number of signature bounds consulted so far.
func (s *Stats) SigProbes() int64 { return s.sigProbes.Load() }

// SigHits returns the number of signature probes that were decisive —
// each one an exact keyword set operation skipped.
func (s *Stats) SigHits() int64 { return s.sigHits.Load() }

// ExactSetOps returns the number of exact keyword set operations
// (similarity merge-walks and per-keyword augmentation walks) query
// traversals have performed. With signatures disabled it counts every
// textual evaluation; the ratio against a signatures-on run is the
// data-skipping win the e12 bench reports.
func (s *Stats) ExactSetOps() int64 { return s.exactSetOps.Load() }

// Reset zeroes the counters.
func (s *Stats) Reset() {
	s.nodeAccesses.Store(0)
	s.sigProbes.Store(0)
	s.sigHits.Store(0)
	s.exactSetOps.Store(0)
}

// DefaultMaxEntries is the default node fanout. 64 entries per node
// approximates a 4 KiB page of 64-byte entries, the page model the
// disk-oriented originals assume.
const DefaultMaxEntries = 64

// Tree is an augmented R-tree over leaf items of type L with per-node
// summaries of type A.
type Tree[L, A any] struct {
	aug   Augmenter[L, A]
	root  *Node[L, A]
	size  int
	minE  int
	maxE  int
	stats Stats
	// gen counts structural mutations (Insert, Delete, BulkLoad). Flat
	// snapshots record the generation they were frozen at, which is how
	// a reader can detect that its snapshot no longer reflects the tree.
	// Atomic because snapshot freshness checks run concurrently with
	// (externally serialized) mutations.
	gen atomic.Uint64
	// noFreezeSigs suppresses the keyword-signature columns at Freeze
	// even when the augmenter implements KeywordSigger — set by index
	// packages whose signature layer is disabled, so the off switch
	// skips the column build cost and memory, not just the probes.
	noFreezeSigs bool
	// last is the Flat of the most recent Freeze. The next Freeze takes
	// clean nodes' leaf runs and signatures from it instead of copying
	// and re-hashing them.
	last *Flat[L, A]
}

// SetFreezeSigs controls whether Freeze materializes keyword-signature
// columns (on by default when the augmenter implements KeywordSigger).
// Like the index-level signature toggles it must be set before the tree
// is shared; already-frozen snapshots keep whatever columns they have.
func (t *Tree[L, A]) SetFreezeSigs(on bool) { t.noFreezeSigs = !on }

// New returns an empty tree with the given augmenter and node fanout.
// maxEntries < 4 is raised to 4; minimum fill is 40% of the maximum, the
// classic R-tree setting.
func New[L, A any](aug Augmenter[L, A], maxEntries int) *Tree[L, A] {
	if maxEntries < 4 {
		maxEntries = 4
	}
	minE := maxEntries * 2 / 5
	if minE < 2 {
		minE = 2
	}
	return &Tree[L, A]{aug: aug, minE: minE, maxE: maxEntries}
}

// Node is one R-tree node. Leaf nodes carry LeafEntry values; internal
// nodes carry children. Both carry the MBR of everything below and the
// augmentation summary.
type Node[L, A any] struct {
	rect geo.Rect
	aug  A
	leaf bool
	// clean reports that the node's augmentation and, for a leaf, its
	// entries are unchanged since the tree's last Freeze, which laid the
	// node out as flatID. recomputeAug and foldIn clear it; a new node
	// starts unclean.
	clean    bool
	flatID   int32
	entries  []LeafEntry[L]
	children []*Node[L, A]
}

// Rect returns the node's MBR.
func (n *Node[L, A]) Rect() geo.Rect { return n.rect }

// Aug returns the node's augmentation summary.
func (n *Node[L, A]) Aug() A { return n.aug }

// IsLeaf reports whether the node is a leaf.
func (n *Node[L, A]) IsLeaf() bool { return n.leaf }

// Entries returns the leaf entries; only valid for leaf nodes. Callers
// must not mutate the returned slice.
func (n *Node[L, A]) Entries() []LeafEntry[L] { return n.entries }

// Children returns the child nodes; only valid for internal nodes.
// Callers must not mutate the returned slice.
func (n *Node[L, A]) Children() []*Node[L, A] { return n.children }

// Root returns the root node, or nil for an empty tree. Index packages
// run their custom best-first traversals from here.
func (t *Tree[L, A]) Root() *Node[L, A] { return t.root }

// Stats returns the query statistics collector of this tree.
func (t *Tree[L, A]) Stats() *Stats { return &t.stats }

// Generation returns the tree's mutation generation: a counter bumped by
// every Insert, successful Delete, and BulkLoad. A Flat frozen at
// generation g is stale exactly when Generation() != g.
func (t *Tree[L, A]) Generation() uint64 { return t.gen.Load() }

// Len returns the number of stored items.
func (t *Tree[L, A]) Len() int { return t.size }

// MaxEntries returns the node fanout the tree was built with.
func (t *Tree[L, A]) MaxEntries() int { return t.maxE }

// Height returns the number of levels (0 for an empty tree, 1 for a
// single leaf root).
func (t *Tree[L, A]) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}

// NodeCount returns the total number of nodes.
func (t *Tree[L, A]) NodeCount() int {
	var count func(n *Node[L, A]) int
	count = func(n *Node[L, A]) int {
		if n == nil {
			return 0
		}
		c := 1
		for _, ch := range n.children {
			c += count(ch)
		}
		return c
	}
	return count(t.root)
}

// recomputeAug rebuilds a node's summary from its direct content. Every
// change to a node's entries or children ends here or in foldIn, so
// both are where the node is marked as changed since the last Freeze.
func (t *Tree[L, A]) recomputeAug(n *Node[L, A]) {
	n.clean = false
	if n.leaf {
		if len(n.entries) == 0 {
			var zero A
			n.aug = zero
			return
		}
		a := t.aug.FromLeaf(n.entries[0].Item)
		for _, e := range n.entries[1:] {
			a = t.aug.Merge(a, t.aug.FromLeaf(e.Item))
		}
		n.aug = a
		return
	}
	a := n.children[0].aug
	for _, c := range n.children[1:] {
		a = t.aug.Merge(a, c.aug)
	}
	n.aug = a
}

// recomputeRect rebuilds a node's MBR from its direct content.
func (n *Node[L, A]) recomputeRect() {
	if n.leaf {
		if len(n.entries) == 0 {
			n.rect = geo.Rect{}
			return
		}
		r := n.entries[0].Rect
		for _, e := range n.entries[1:] {
			r = r.Union(e.Rect)
		}
		n.rect = r
		return
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Union(c.rect)
	}
	n.rect = r
}

// Insert adds item with the given MBR. Its summary is folded into the
// leaf and every ancestor that does not split, one Merge per node;
// only nodes that split re-merge their content.
func (t *Tree[L, A]) Insert(rect geo.Rect, item L) {
	t.gen.Add(1)
	t.size++
	if t.root == nil {
		t.root = &Node[L, A]{leaf: true}
	}
	leaf, path := t.chooseLeaf(rect)
	leaf.entries = append(leaf.entries, LeafEntry[L]{Rect: rect, Item: item})
	a := t.aug.FromLeaf(item)
	var split *Node[L, A]
	switch {
	case len(leaf.entries) > t.maxE:
		split = t.splitLeaf(leaf)
	case len(leaf.entries) == 1:
		leaf.clean, leaf.rect, leaf.aug = false, rect, a
	default:
		t.foldIn(leaf, rect, a)
	}
	t.adjustUp(path, split, rect, a)
}

// foldIn adds one item's MBR and summary a to node n, whose rect and
// aug already cover the rest of its content. The result equals a
// recompute by the Augmenter contract (Merge is associative and
// commutative), at one Merge instead of one per entry or child.
func (t *Tree[L, A]) foldIn(n *Node[L, A], rect geo.Rect, a A) {
	n.clean = false
	n.rect = n.rect.Union(rect)
	n.aug = t.aug.Merge(n.aug, a)
}

// chooseLeaf descends by least enlargement (area as tie-breaker) and
// returns the target leaf plus the root→parent path.
func (t *Tree[L, A]) chooseLeaf(rect geo.Rect) (*Node[L, A], []*Node[L, A]) {
	var path []*Node[L, A]
	n := t.root
	for !n.leaf {
		path = append(path, n)
		best := 0
		bestEnl := n.children[0].rect.Enlargement(rect)
		bestArea := n.children[0].rect.Area()
		for i := 1; i < len(n.children); i++ {
			enl := n.children[i].rect.Enlargement(rect)
			area := n.children[i].rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.children[best]
	}
	return n, path
}

// adjustUp fixes MBRs and augmentations along the path after an insert
// of an item with MBR rect and summary a into (a possibly split) child.
// split is the new sibling produced at the lowest level, or nil. A node
// that splits recomputes both halves; every other node on the path
// folds the item in.
func (t *Tree[L, A]) adjustUp(path []*Node[L, A], split *Node[L, A], rect geo.Rect, a A) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if split != nil {
			n.children = append(n.children, split)
			split = nil
		}
		if len(n.children) > t.maxE {
			split = t.splitInternal(n)
		} else {
			t.foldIn(n, rect, a)
		}
	}
	if split != nil {
		// Root split: grow the tree.
		old := t.root
		t.root = &Node[L, A]{children: []*Node[L, A]{old, split}}
		t.root.recomputeRect()
		t.recomputeAug(t.root)
	}
}

// splitLeaf quadratic-splits an overflowing leaf in place and returns the
// new sibling.
func (t *Tree[L, A]) splitLeaf(n *Node[L, A]) *Node[L, A] {
	rects := make([]geo.Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = e.Rect
	}
	groupA, groupB := quadraticPartition(rects, t.minE)
	entries := n.entries
	n.entries = nil
	sib := &Node[L, A]{leaf: true}
	for _, i := range groupA {
		n.entries = append(n.entries, entries[i])
	}
	for _, i := range groupB {
		sib.entries = append(sib.entries, entries[i])
	}
	n.recomputeRect()
	sib.recomputeRect()
	t.recomputeAug(n)
	t.recomputeAug(sib)
	return sib
}

// splitInternal quadratic-splits an overflowing internal node in place
// and returns the new sibling.
func (t *Tree[L, A]) splitInternal(n *Node[L, A]) *Node[L, A] {
	rects := make([]geo.Rect, len(n.children))
	for i, c := range n.children {
		rects[i] = c.rect
	}
	groupA, groupB := quadraticPartition(rects, t.minE)
	children := n.children
	n.children = nil
	sib := &Node[L, A]{}
	for _, i := range groupA {
		n.children = append(n.children, children[i])
	}
	for _, i := range groupB {
		sib.children = append(sib.children, children[i])
	}
	n.recomputeRect()
	sib.recomputeRect()
	t.recomputeAug(n)
	t.recomputeAug(sib)
	return sib
}

// quadraticPartition implements Guttman's quadratic split: pick the two
// seeds wasting the most area together, then assign each remaining rect
// to the group whose MBR grows least, forcing assignment when a group
// must absorb all remaining rects to reach minimum fill. It returns the
// index sets of the two groups.
func quadraticPartition(rects []geo.Rect, minFill int) (groupA, groupB []int) {
	n := len(rects)
	seedA, seedB := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if d > worst {
				worst, seedA, seedB = d, i, j
			}
		}
	}
	groupA = []int{seedA}
	groupB = []int{seedB}
	rectA, rectB := rects[seedA], rects[seedB]
	assigned := make([]bool, n)
	assigned[seedA], assigned[seedB] = true, true
	remaining := n - 2
	for remaining > 0 {
		// Force-assign when one group needs every remaining rect.
		if len(groupA)+remaining == minFill {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groupA = append(groupA, i)
					rectA = rectA.Union(rects[i])
					assigned[i] = true
				}
			}
			return groupA, groupB
		}
		if len(groupB)+remaining == minFill {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groupB = append(groupB, i)
					rectB = rectB.Union(rects[i])
					assigned[i] = true
				}
			}
			return groupA, groupB
		}
		// Pick the unassigned rect with the strongest preference.
		pick, pickDiff, pickToA := -1, -1.0, false
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			dA := rectA.Enlargement(rects[i])
			dB := rectB.Enlargement(rects[i])
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > pickDiff {
				pickDiff = diff
				pick = i
				pickToA = dA < dB || (dA == dB && rectA.Area() < rectB.Area()) ||
					(dA == dB && rectA.Area() == rectB.Area() && len(groupA) <= len(groupB))
			}
		}
		if pickToA {
			groupA = append(groupA, pick)
			rectA = rectA.Union(rects[pick])
		} else {
			groupB = append(groupB, pick)
			rectB = rectB.Union(rects[pick])
		}
		assigned[pick] = true
		remaining--
	}
	return groupA, groupB
}

// Delete removes one item whose MBR equals rect and for which match
// returns true. It reports whether an item was removed. Underflowing
// nodes are dissolved and their content re-inserted (Guttman's
// CondenseTree).
func (t *Tree[L, A]) Delete(rect geo.Rect, match func(L) bool) bool {
	if t.root == nil {
		return false
	}
	leaf, path := t.findLeaf(t.root, nil, rect, match)
	if leaf == nil {
		return false
	}
	t.gen.Add(1)
	for i, e := range leaf.entries {
		if e.Rect == rect && match(e.Item) {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	t.size--
	t.condense(leaf, path)
	return true
}

// findLeaf locates the leaf containing a matching entry via MBR overlap.
func (t *Tree[L, A]) findLeaf(n *Node[L, A], path []*Node[L, A], rect geo.Rect, match func(L) bool) (*Node[L, A], []*Node[L, A]) {
	if n.leaf {
		for _, e := range n.entries {
			if e.Rect == rect && match(e.Item) {
				return n, path
			}
		}
		return nil, nil
	}
	for _, c := range n.children {
		if c.rect.ContainsRect(rect) || c.rect.Intersects(rect) {
			if leaf, p := t.findLeaf(c, append(path, n), rect, match); leaf != nil {
				return leaf, p
			}
		}
	}
	return nil, nil
}

// condense removes underflowing nodes along the path and re-inserts their
// orphaned content, then shrinks the root if needed.
func (t *Tree[L, A]) condense(leaf *Node[L, A], path []*Node[L, A]) {
	var orphanEntries []LeafEntry[L]
	var orphanNodes []*Node[L, A]

	node := leaf
	for i := len(path) - 1; i >= 0; i-- {
		parent := path[i]
		under := false
		if node.leaf {
			under = len(node.entries) < t.minE
		} else {
			under = len(node.children) < t.minE
		}
		if under && node != t.root {
			for j, c := range parent.children {
				if c == node {
					parent.children = append(parent.children[:j], parent.children[j+1:]...)
					break
				}
			}
			if node.leaf {
				orphanEntries = append(orphanEntries, node.entries...)
			} else {
				orphanNodes = append(orphanNodes, node.children...)
			}
		} else {
			node.recomputeRect()
			t.recomputeAug(node)
		}
		node = parent
	}
	t.root.recomputeRect()
	t.recomputeAug(t.root)

	// Shrink the root.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &Node[L, A]{leaf: true}
	}
	if t.root.leaf && len(t.root.entries) == 0 && t.size == 0 {
		t.root = nil
	}

	// Re-insert orphans. Subtree orphans are re-inserted leaf by leaf,
	// which is simpler than level-aware re-insertion and preserves all
	// invariants (at the cost of extra work on deep deletes).
	for _, n := range orphanNodes {
		collectEntries(n, &orphanEntries)
	}
	t.size -= len(orphanEntries)
	for _, e := range orphanEntries {
		t.Insert(e.Rect, e.Item)
	}
}

func collectEntries[L, A any](n *Node[L, A], out *[]LeafEntry[L]) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, c := range n.children {
		collectEntries(c, out)
	}
}

// BulkLoad replaces the tree content with the given entries using STR
// (sort-tile-recursive) packing, which yields near-optimal space
// utilisation and is how the benches construct large indexes.
func (t *Tree[L, A]) BulkLoad(entries []LeafEntry[L]) {
	t.gen.Add(1)
	t.size = len(entries)
	if len(entries) == 0 {
		t.root = nil
		return
	}
	es := make([]LeafEntry[L], len(entries))
	copy(es, entries)

	// Leaf level: STR tiling.
	leafCap := t.maxE
	nLeaves := (len(es) + leafCap - 1) / leafCap
	nStrips := intSqrtCeil(nLeaves)
	sort.Slice(es, func(i, j int) bool {
		return es[i].Rect.Center().X < es[j].Rect.Center().X
	})
	perStrip := (len(es) + nStrips - 1) / nStrips
	var leaves []*Node[L, A]
	for s := 0; s < len(es); s += perStrip {
		hi := s + perStrip
		if hi > len(es) {
			hi = len(es)
		}
		strip := es[s:hi]
		sort.Slice(strip, func(i, j int) bool {
			return strip[i].Rect.Center().Y < strip[j].Rect.Center().Y
		})
		for o := 0; o < len(strip); o += leafCap {
			e := o + leafCap
			if e > len(strip) {
				e = len(strip)
			}
			leaf := &Node[L, A]{leaf: true, entries: append([]LeafEntry[L](nil), strip[o:e]...)}
			leaf.recomputeRect()
			t.recomputeAug(leaf)
			leaves = append(leaves, leaf)
		}
	}

	// Upper levels: pack nodes with the same STR strategy.
	level := leaves
	for len(level) > 1 {
		nNodes := (len(level) + t.maxE - 1) / t.maxE
		nStrips := intSqrtCeil(nNodes)
		sort.Slice(level, func(i, j int) bool {
			return level[i].rect.Center().X < level[j].rect.Center().X
		})
		perStrip := (len(level) + nStrips - 1) / nStrips
		var next []*Node[L, A]
		for s := 0; s < len(level); s += perStrip {
			hi := s + perStrip
			if hi > len(level) {
				hi = len(level)
			}
			strip := level[s:hi]
			sort.Slice(strip, func(i, j int) bool {
				return strip[i].rect.Center().Y < strip[j].rect.Center().Y
			})
			for o := 0; o < len(strip); o += t.maxE {
				e := o + t.maxE
				if e > len(strip) {
					e = len(strip)
				}
				n := &Node[L, A]{children: append([]*Node[L, A](nil), strip[o:e]...)}
				n.recomputeRect()
				t.recomputeAug(n)
				next = append(next, n)
			}
		}
		level = next
	}
	t.root = level[0]
}

func intSqrtCeil(n int) int {
	if n <= 1 {
		return 1
	}
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// Range calls fn for every item whose MBR intersects rect, stopping early
// if fn returns false. It reports whether the scan ran to completion.
func (t *Tree[L, A]) Range(rect geo.Rect, fn func(LeafEntry[L]) bool) bool {
	if t.root == nil {
		return true
	}
	return t.rangeNode(t.root, rect, fn)
}

func (t *Tree[L, A]) rangeNode(n *Node[L, A], rect geo.Rect, fn func(LeafEntry[L]) bool) bool {
	t.stats.AddNodeAccesses(1)
	if n.leaf {
		for _, e := range n.entries {
			if rect.Intersects(e.Rect) {
				if !fn(e) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if rect.Intersects(c.rect) {
			if !t.rangeNode(c, rect, fn) {
				return false
			}
		}
	}
	return true
}

// Neighbor is one kNN result.
type Neighbor[L any] struct {
	Item L
	Dist float64
}

// KNN returns the k items nearest to p in ascending distance order,
// using best-first search over MinDist bounds. Fewer than k items are
// returned when the tree is smaller than k.
func (t *Tree[L, A]) KNN(p geo.Point, k int) []Neighbor[L] {
	if t.root == nil || k <= 0 {
		return nil
	}
	type qe struct {
		dist  float64
		node  *Node[L, A]
		entry LeafEntry[L]
		leafE bool
	}
	pq := newKNNQueue[qe](func(a, b qe) bool {
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		// Visit nodes before items at equal distance so no closer item
		// hiding in the node is skipped.
		return !a.leafE && b.leafE
	})
	pq.push(qe{dist: t.root.rect.MinDist(p), node: t.root})
	var out []Neighbor[L]
	for pq.len() > 0 && len(out) < k {
		top := pq.pop()
		if top.leafE {
			out = append(out, Neighbor[L]{Item: top.entry.Item, Dist: top.dist})
			continue
		}
		n := top.node
		t.stats.AddNodeAccesses(1)
		if n.leaf {
			for _, e := range n.entries {
				pq.push(qe{dist: e.Rect.MinDist(p), entry: e, leafE: true})
			}
			continue
		}
		for _, c := range n.children {
			pq.push(qe{dist: c.rect.MinDist(p), node: c})
		}
	}
	return out
}

// knnQueue is a minimal local heap; kept here rather than importing
// pqueue to keep rtree dependency-free below geo.
type knnQueue[T any] struct {
	items []T
	less  func(a, b T) bool
}

func newKNNQueue[T any](less func(a, b T) bool) *knnQueue[T] {
	return &knnQueue[T]{less: less}
}

func (q *knnQueue[T]) len() int { return len(q.items) }

func (q *knnQueue[T]) push(v T) {
	q.items = append(q.items, v)
	i := len(q.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(q.items[i], q.items[p]) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *knnQueue[T]) pop() T {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	i, n := 0, len(q.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		b := l
		if r := l + 1; r < n && q.less(q.items[r], q.items[l]) {
			b = r
		}
		if !q.less(q.items[b], q.items[i]) {
			break
		}
		q.items[i], q.items[b] = q.items[b], q.items[i]
		i = b
	}
	return top
}

// Verify checks structural invariants: MBR containment, fill bounds, and
// leaf depth uniformity. It returns a descriptive error for the first
// violation found, or nil. Intended for tests and debugging.
func (t *Tree[L, A]) Verify() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("rtree: nil root but size %d", t.size)
		}
		return nil
	}
	leafDepth := -1
	var walk func(n *Node[L, A], depth int, isRoot bool) (int, error)
	walk = func(n *Node[L, A], depth int, isRoot bool) (int, error) {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth)
			}
			// Bulk loading may legitimately leave one trailing leaf per
			// strip under-filled, so only emptiness and overflow are
			// structural violations.
			if !isRoot && (len(n.entries) == 0 || len(n.entries) > t.maxE) {
				return 0, fmt.Errorf("rtree: leaf fill %d outside [1,%d]", len(n.entries), t.maxE)
			}
			count := len(n.entries)
			for _, e := range n.entries {
				if !n.rect.ContainsRect(e.Rect) {
					return 0, fmt.Errorf("rtree: leaf MBR %v does not contain entry %v", n.rect, e.Rect)
				}
			}
			return count, nil
		}
		if !isRoot && (len(n.children) == 0 || len(n.children) > t.maxE) {
			return 0, fmt.Errorf("rtree: node fill %d outside [1,%d]", len(n.children), t.maxE)
		}
		if isRoot && len(n.children) < 2 {
			return 0, fmt.Errorf("rtree: internal root with %d children", len(n.children))
		}
		total := 0
		for _, c := range n.children {
			if !n.rect.ContainsRect(c.rect) {
				return 0, fmt.Errorf("rtree: node MBR %v does not contain child %v", n.rect, c.rect)
			}
			sub, err := walk(c, depth+1, false)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	}
	total, err := walk(t.root, 0, true)
	if err != nil {
		return err
	}
	if total != t.size {
		return fmt.Errorf("rtree: size %d but %d reachable entries", t.size, total)
	}
	return nil
}

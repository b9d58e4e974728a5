package rtree

import (
	"errors"
	"fmt"

	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/vocab"
)

// KeywordSigger is the optional companion interface of an Augmenter:
// when the augmenter passed to New implements it, Freeze materializes a
// keyword-signature column alongside the arena — one fixed-width hashed
// bitmap per node (covering the keyword union of everything below, via
// the augmentation) and one per leaf entry (the entry's own document).
// Query traversals use the signatures as constant-time upper bounds on
// keyword intersections, skipping exact merge-walks whenever the bound
// alone is decisive.
type KeywordSigger[L, A any] interface {
	// NodeSig returns the signature covering every keyword below a node
	// with augmentation a. It must be a superset signature: every
	// keyword of every object below must set its bit.
	NodeSig(a *A) vocab.Signature
	// LeafSig returns the signature of one leaf item's keyword set.
	LeafSig(item *L) vocab.Signature
}

// ErrStaleSnapshot is the sentinel matched (via errors.Is) by every
// stale-snapshot error: the source tree has been mutated since the Flat
// was frozen, so traversing the snapshot could silently serve results
// that no longer reflect the data. Callers repair the condition by
// re-freezing (Index.Refresh in the index packages).
var ErrStaleSnapshot = errors.New("rtree: flat snapshot is stale")

// StaleSnapshotError reports a freshness check failure together with the
// two generations involved. It matches ErrStaleSnapshot under errors.Is.
type StaleSnapshotError struct {
	// FrozenGen is the tree generation the snapshot was frozen at.
	FrozenGen uint64
	// TreeGen is the tree's generation at check time.
	TreeGen uint64
}

// Error implements error.
func (e *StaleSnapshotError) Error() string {
	return fmt.Sprintf(
		"rtree: flat snapshot is stale (frozen at generation %d, tree now at %d); refresh the index before querying",
		e.FrozenGen, e.TreeGen)
}

// Is reports whether target is ErrStaleSnapshot.
func (e *StaleSnapshotError) Is(target error) bool { return target == ErrStaleSnapshot }

// Flat is a frozen, contiguous snapshot of a Tree laid out as a struct
// of arrays: per-node MBRs, augmentations, child ranges, and leaf
// payload ranges live in flat slices indexed by a dense int32 node ID,
// and all leaf entries share one backing slice. Nodes are numbered in
// breadth-first order, so the children of any node are a contiguous
// index range and the root is node 0.
//
// The layout removes the pointer chasing of the Node graph from query
// traversals: a best-first search touches four parallel slices instead
// of scattered heap objects, which is what makes the steady-state query
// paths cache-friendly and allocation-free. Augmentation values are
// copied by value, so slice-backed summaries (keyword sets, postings,
// count maps) share their backing arrays with the source tree.
//
// A Flat is immutable and safe for concurrent readers. It records node
// accesses into the source tree's Stats collector, so existing
// instrumentation keeps working after a freeze.
type Flat[L, A any] struct {
	rects      []geo.Rect
	augs       []A
	childStart []int32
	childEnd   []int32
	entryStart []int32
	entryEnd   []int32
	entries    []LeafEntry[L]
	// sigs and entrySigs are the keyword-signature columns, parallel to
	// the node slices and to entries respectively; nil when the tree's
	// augmenter does not implement KeywordSigger.
	sigs      []vocab.Signature
	entrySigs []vocab.Signature
	size      int
	stats     *Stats
	// tree is the source tree and gen the generation it had when the
	// snapshot was frozen; together they implement the staleness check.
	tree *Tree[L, A]
	gen  uint64
	// epoch is the process-wide epoch identity stamped by the publisher
	// at publication; 0 for snapshots frozen outside a publisher.
	epoch uint64
}

// Epoch returns the process-wide epoch identity stamped when the
// snapshot was published, or 0 if it was frozen outside a publisher.
// Distinct published states always carry distinct epochs, which is the
// identity result caches key on.
func (f *Flat[L, A]) Epoch() uint64 { return f.epoch }

// Freeze returns a Flat snapshot of the tree's current content. Later
// mutations of the tree are not reflected in the snapshot; the snapshot
// records the tree generation it was frozen at, and CheckFresh reports
// an error once the tree has moved past it.
//
// Signatures carry over between freezes. Freeze records each node's ID
// in the new Flat and marks the node clean; recomputeAug, which every
// insert, delete, split and condense runs on each node it changes,
// marks it unclean again. The next Freeze copies a clean node's
// signature, and a clean leaf's run of entry signatures, from the
// previous Flat, and calls the KeywordSigger only for changed or new
// nodes. A write that touches one root-to-leaf path therefore re-hashes
// that path instead of the whole tree. The copied values are the ones
// the KeywordSigger would return, so the output is identical to a
// from-scratch freeze; a BulkLoad, a tree's first freeze, and the first
// freeze after signatures are switched on compute every signature.
//
// Freeze writes this per-node bookkeeping, so it must be serialized
// with the tree's mutations and with other freezes of the same tree.
func (t *Tree[L, A]) Freeze() *Flat[L, A] {
	f := &Flat[L, A]{stats: &t.stats, size: t.size, tree: t, gen: t.gen.Load()}
	if t.root == nil {
		t.last = nil
		return f
	}
	nodes := t.NodeCount()
	f.rects = make([]geo.Rect, 0, nodes)
	f.augs = make([]A, 0, nodes)
	f.childStart = make([]int32, 0, nodes)
	f.childEnd = make([]int32, 0, nodes)
	f.entryStart = make([]int32, 0, nodes)
	f.entryEnd = make([]int32, 0, nodes)
	f.entries = make([]LeafEntry[L], 0, t.size)
	sigger, _ := t.aug.(KeywordSigger[L, A])
	if t.noFreezeSigs {
		sigger = nil
	}
	// prev is the snapshot the clean nodes' flatIDs index into.
	var prev *Flat[L, A]
	if sigger != nil {
		f.sigs = make([]vocab.Signature, 0, nodes)
		f.entrySigs = make([]vocab.Signature, 0, t.size)
		prev = t.last
	}

	// Breadth-first layout: the queue position of a node is its ID, so
	// appending a node's children consecutively yields contiguous child
	// ranges for free.
	queue := make([]*Node[L, A], 1, nodes)
	queue[0] = t.root
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		carry := prev != nil && n.clean
		f.rects = append(f.rects, n.rect)
		f.augs = append(f.augs, n.aug)
		if carry {
			f.sigs = append(f.sigs, prev.sigs[n.flatID])
		} else if sigger != nil {
			f.sigs = append(f.sigs, sigger.NodeSig(&n.aug))
		}
		if n.leaf {
			f.childStart = append(f.childStart, 0)
			f.childEnd = append(f.childEnd, 0)
			f.entryStart = append(f.entryStart, int32(len(f.entries)))
			f.entries = append(f.entries, n.entries...)
			f.entryEnd = append(f.entryEnd, int32(len(f.entries)))
			if carry {
				f.entrySigs = append(f.entrySigs, prev.entrySigs[prev.entryStart[n.flatID]:prev.entryEnd[n.flatID]]...)
			} else if sigger != nil {
				for i := range n.entries {
					f.entrySigs = append(f.entrySigs, sigger.LeafSig(&n.entries[i].Item))
				}
			}
		} else {
			lo := int32(len(queue))
			queue = append(queue, n.children...)
			f.childStart = append(f.childStart, lo)
			f.childEnd = append(f.childEnd, lo+int32(len(n.children)))
			f.entryStart = append(f.entryStart, 0)
			f.entryEnd = append(f.entryEnd, 0)
		}
		n.clean, n.flatID = true, int32(head)
	}
	t.last = nil
	if sigger != nil {
		t.last = f
	}
	return f
}

// Empty reports whether the snapshot holds no nodes.
//
//yask:hotpath
func (f *Flat[L, A]) Empty() bool { return len(f.rects) == 0 }

// NumNodes returns the number of nodes in the snapshot.
//
//yask:hotpath
func (f *Flat[L, A]) NumNodes() int { return len(f.rects) }

// Len returns the number of leaf items in the snapshot.
//
//yask:hotpath
func (f *Flat[L, A]) Len() int { return f.size }

// Stats returns the statistics collector shared with the source tree.
//
//yask:hotpath
func (f *Flat[L, A]) Stats() *Stats { return f.stats }

// Generation returns the tree generation the snapshot was frozen at.
//
//yask:hotpath
func (f *Flat[L, A]) Generation() uint64 { return f.gen }

// Stale reports whether the source tree has been mutated since the
// snapshot was frozen. A Flat frozen from the zero-value (never-mutated)
// path with no tree is never stale.
func (f *Flat[L, A]) Stale() bool {
	return f.tree != nil && f.tree.gen.Load() != f.gen
}

// CheckFresh returns a *StaleSnapshotError (matching ErrStaleSnapshot)
// when the source tree has been mutated since the freeze, nil otherwise.
// It is the primitive for callers holding a Flat directly; the index
// packages do NOT call it per traversal — they gate queries through
// their publisher's managed-generation check (SnapshotPublisher.Snapshot),
// which additionally tolerates managed mutations pending a Refresh. A
// Flat held past its index's Refresh keeps serving its frozen content
// without error; check here explicitly if that matters to you.
func (f *Flat[L, A]) CheckFresh() error {
	if f.tree == nil {
		return nil
	}
	if g := f.tree.gen.Load(); g != f.gen {
		return &StaleSnapshotError{FrozenGen: f.gen, TreeGen: g}
	}
	return nil
}

// Rect returns node n's MBR.
//
//yask:hotpath
func (f *Flat[L, A]) Rect(n int32) geo.Rect { return f.rects[n] }

// Aug returns a pointer to node n's augmentation summary. The summary
// must not be mutated.
//
//yask:hotpath
func (f *Flat[L, A]) Aug(n int32) *A { return &f.augs[n] }

// IsLeaf reports whether node n is a leaf.
//
//yask:hotpath
func (f *Flat[L, A]) IsLeaf(n int32) bool { return f.childEnd[n] == f.childStart[n] }

// Children returns the contiguous node-ID range [lo, hi) of node n's
// children; empty for leaves.
//
//yask:hotpath
func (f *Flat[L, A]) Children(n int32) (lo, hi int32) {
	return f.childStart[n], f.childEnd[n]
}

// Entries returns node n's leaf entries as a sub-slice of the shared
// entry arena; empty for internal nodes. Callers must not mutate it.
//
//yask:hotpath
func (f *Flat[L, A]) Entries(n int32) []LeafEntry[L] {
	return f.entries[f.entryStart[n]:f.entryEnd[n]]
}

// EntryRange returns the index range [lo, hi) of node n's leaf entries
// in the shared entry arena (AllEntries / EntrySigs); empty for
// internal nodes. Traversals that need the per-entry signature column
// address entries by arena index instead of Entries' sub-slice.
//
//yask:hotpath
func (f *Flat[L, A]) EntryRange(n int32) (lo, hi int32) {
	return f.entryStart[n], f.entryEnd[n]
}

// AllEntries returns every leaf entry in the snapshot in layout order.
// Callers must not mutate the returned slice.
//
//yask:hotpath
func (f *Flat[L, A]) AllEntries() []LeafEntry[L] { return f.entries }

// HasSigs reports whether the snapshot carries keyword-signature
// columns (the source tree's augmenter implements KeywordSigger).
//
//yask:hotpath
func (f *Flat[L, A]) HasSigs() bool { return f.sigs != nil }

// Sig returns a pointer to node n's keyword signature. Only valid when
// HasSigs; the signature must not be mutated.
//
//yask:hotpath
func (f *Flat[L, A]) Sig(n int32) *vocab.Signature { return &f.sigs[n] }

// EntrySigs returns the per-entry signature column, parallel to
// AllEntries; nil when the snapshot carries no signatures. Callers must
// not mutate it.
//
//yask:hotpath
func (f *Flat[L, A]) EntrySigs() []vocab.Signature { return f.entrySigs }

// VerifySigs checks the snapshot's signature columns against s: every
// node signature must equal s.NodeSig of the node's augmentation and
// every entry signature s.LeafSig of its item. It returns an error
// naming the first mismatch, or nil; a snapshot without signature
// columns passes. Intended for tests and debugging.
func (f *Flat[L, A]) VerifySigs(s KeywordSigger[L, A]) error {
	if !f.HasSigs() {
		return nil
	}
	if len(f.sigs) != len(f.rects) || len(f.entrySigs) != len(f.entries) {
		return fmt.Errorf("rtree: %d node and %d entry signatures for %d nodes and %d entries",
			len(f.sigs), len(f.entrySigs), len(f.rects), len(f.entries))
	}
	for n := range f.sigs {
		if f.sigs[n] != s.NodeSig(&f.augs[n]) {
			return fmt.Errorf("rtree: node %d signature differs from its augmentation's", n)
		}
	}
	for i := range f.entrySigs {
		if f.entrySigs[i] != s.LeafSig(&f.entries[i].Item) {
			return fmt.Errorf("rtree: entry %d signature differs from its item's", i)
		}
	}
	return nil
}

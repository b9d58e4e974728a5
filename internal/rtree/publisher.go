package rtree

import (
	"sync"
	"sync/atomic"

	"github.com/yask-engine/yask/internal/geo"
)

// epochCounter issues process-wide unique, strictly increasing epoch
// identities. Every publisher stamps one into each arena it publishes,
// so an epoch value identifies one published state across the whole
// process, which is what lets a result cache key on it and have
// refresh/recovery orphan stale entries for free.
var epochCounter atomic.Uint64

// NextEpoch returns the next process-wide epoch identity. Epoch 0 is
// never issued: it marks arenas frozen outside a publisher.
func NextEpoch() uint64 { return epochCounter.Add(1) }

// pubState is one published epoch: the tree, its frozen arena, and the
// index-specific payload (the arena-scoped query wrapper of the index
// package owning the publisher) frozen together. Swapping all three
// behind one pointer means a reader never pairs one epoch's tree with
// another epoch's arena.
type pubState[L, A any] struct {
	tree    *Tree[L, A]
	flat    *Flat[L, A]
	payload any
}

// SnapshotPublisher owns the freeze/refresh lifecycle of one Tree: it
// publishes an immutable Flat arena (plus an index-specific payload
// built from it) through an atomic pointer and tracks which tree
// generations were produced by its own (managed) mutation path. Index
// packages embed one publisher each so the lifecycle protocol —
// including the subtle settle-under-lock check — lives in exactly one
// place, for both index families.
//
// Contract: queries acquire the arena via Snapshot, which fails with a
// *StaleSnapshotError once the tree has been mutated outside Insert/
// Remove/Refresh. Managed mutations leave the published snapshot
// serving (complete and consistent, minus the buffered changes) until
// Refresh re-freezes off the query path and swaps atomically.
type SnapshotPublisher[L, A any] struct {
	st atomic.Pointer[pubState[L, A]]
	// mu serializes mutations and refreshes; queries never take it.
	mu sync.Mutex
	// knownGen is the highest generation of the current tree produced by
	// the managed mutation path. The tree moving past it means someone
	// mutated the tree behind the publisher's back.
	knownGen atomic.Uint64
	// wrap builds the payload published alongside each frozen arena.
	// Nil publishes a nil payload.
	wrap func(*Flat[L, A]) any
	// thaw, set only by NewMappedPublisher, rebuilds a live Tree from a
	// mapped arena's entries on the first managed mutation. While the
	// published state is mapped (pubState.tree == nil) the snapshot is
	// never stale and Refresh is a no-op.
	thaw func(*Flat[L, A]) *Tree[L, A]
}

// NewSnapshotPublisher freezes the tree's current content and returns a
// publisher serving it. wrap, if non-nil, is called with every arena
// the publisher freezes — at construction and on Refresh — and its result is published atomically with the arena; index packages
// use it to attach their arena-scoped query wrappers.
func NewSnapshotPublisher[L, A any](t *Tree[L, A], wrap func(*Flat[L, A]) any) *SnapshotPublisher[L, A] {
	p := &SnapshotPublisher[L, A]{wrap: wrap}
	p.publishLocked(t)
	return p
}

// NewMappedPublisher publishes a Flat loaded from an arena file
// (BuildFlat) without any source tree: queries serve the mapped columns
// directly and the snapshot is never stale. The mapped state lasts
// until the first managed mutation, which calls thaw to rebuild a live
// Tree from the arena's entries and publishes its frozen epoch — from
// then on the publisher behaves exactly like one built over a tree.
// Refresh on a still-mapped state is a no-op: there is nothing newer to
// freeze.
func NewMappedPublisher[L, A any](f *Flat[L, A], wrap func(*Flat[L, A]) any, thaw func(*Flat[L, A]) *Tree[L, A]) *SnapshotPublisher[L, A] {
	p := &SnapshotPublisher[L, A]{wrap: wrap, thaw: thaw}
	f.epoch = NextEpoch()
	st := &pubState[L, A]{flat: f}
	if p.wrap != nil {
		st.payload = p.wrap(f)
	}
	p.st.Store(st)
	return p
}

// Mapped reports whether the current published state is a mapped arena
// with no live tree behind it (no managed mutation has thawed it yet).
func (p *SnapshotPublisher[L, A]) Mapped() bool { return p.st.Load().tree == nil }

// thawLocked returns the current tree, rebuilding one from the mapped
// arena on first need. Callers hold mu.
func (p *SnapshotPublisher[L, A]) thawLocked() *Tree[L, A] {
	st := p.st.Load()
	if st.tree != nil {
		return st.tree
	}
	t := p.thaw(st.flat)
	p.publishLocked(t)
	return t
}

// publishLocked freezes t and publishes the new epoch. Callers hold mu
// (or, at construction, exclusive access).
func (p *SnapshotPublisher[L, A]) publishLocked(t *Tree[L, A]) {
	f := t.Freeze()
	f.epoch = NextEpoch()
	st := &pubState[L, A]{tree: t, flat: f}
	if p.wrap != nil {
		st.payload = p.wrap(f)
	}
	p.st.Store(st)
	p.knownGen.Store(t.Generation())
}

// Tree returns the underlying tree of the current epoch, or nil while
// the published state is a mapped arena (Mapped). Mutating it directly
// leaves the published snapshot stale and Snapshot will error until
// Refresh.
func (p *SnapshotPublisher[L, A]) Tree() *Tree[L, A] { return p.st.Load().tree }

// Flat returns the current published arena without a freshness check.
func (p *SnapshotPublisher[L, A]) Flat() *Flat[L, A] { return p.st.Load().flat }

// Payload returns the payload published with the current arena, without
// a freshness check.
func (p *SnapshotPublisher[L, A]) Payload() any { return p.st.Load().payload }

// Snapshot returns the published arena and its payload after verifying
// that every tree mutation went through the managed path; it fails with
// a *StaleSnapshotError (matching ErrStaleSnapshot) otherwise.
func (p *SnapshotPublisher[L, A]) Snapshot() (*Flat[L, A], any, error) {
	st := p.st.Load()
	if st.tree == nil {
		// Mapped arena: immutable by construction, never stale.
		return st.flat, st.payload, nil
	}
	if g := st.tree.Generation(); g == p.knownGen.Load() {
		return st.flat, st.payload, nil
	}
	// The mismatch may be a managed mutation caught mid-flight (the tree
	// generation moves before knownGen catches up); settle under the
	// mutation lock, after which only an unmanaged mutation still
	// mismatches.
	p.mu.Lock()
	st = p.st.Load()
	g, known := st.tree.Generation(), p.knownGen.Load()
	p.mu.Unlock()
	if g != known {
		return nil, nil, &StaleSnapshotError{FrozenGen: st.flat.Generation(), TreeGen: g}
	}
	return st.flat, st.payload, nil
}

// Insert adds an item through the managed mutation path; the published
// snapshot keeps serving until Refresh.
func (p *SnapshotPublisher[L, A]) Insert(rect geo.Rect, item L) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.thawLocked()
	t.Insert(rect, item)
	p.knownGen.Store(t.Generation())
}

// Remove deletes one matching item through the managed mutation path
// and reports whether it was present.
func (p *SnapshotPublisher[L, A]) Remove(rect geo.Rect, match func(L) bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.thawLocked()
	ok := t.Delete(rect, match)
	p.knownGen.Store(t.Generation())
	return ok
}

// Refresh re-freezes the current tree and atomically publishes the new
// arena. Concurrent queries keep traversing the old snapshot and pick
// up the new one on their next acquisition.
func (p *SnapshotPublisher[L, A]) Refresh() {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.st.Load().tree
	if t == nil {
		// Still serving a mapped arena: no mutations have happened, so
		// there is nothing newer to freeze.
		return
	}
	p.publishLocked(t)
}

// Package object defines the spatial-textual object model shared by every
// index and engine: an object o = (o.loc, o.doc) per Section 2.1 of the
// paper, carried together with a stable ID and an optional display name.
package object

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/vocab"
)

// ID is a stable object identifier. IDs are dense per dataset and double
// as the deterministic tie-breaker for equal ranking scores.
type ID uint32

// Object is one spatial web object: a point location plus a keyword set.
type Object struct {
	ID   ID
	Loc  geo.Point
	Doc  vocab.KeywordSet
	Name string
}

// Rect returns the degenerate MBR of the object's location.
func (o Object) Rect() geo.Rect { return geo.RectFromPoint(o.Loc) }

// String implements fmt.Stringer.
func (o Object) String() string {
	if o.Name != "" {
		return fmt.Sprintf("#%d %q @%s %s", o.ID, o.Name, o.Loc, o.Doc)
	}
	return fmt.Sprintf("#%d @%s %s", o.ID, o.Loc, o.Doc)
}

// Collection is an ID-addressable set of objects shared by every engine
// and index. The slice index of an object equals its ID, which keeps
// lookups O(1).
//
// A Collection is mutable through Append and Tombstone, but readers are
// never blocked: every read loads an immutable copy-on-write state
// through an atomic pointer, so Len/Get/All/Space/MaxDist are safe for
// concurrent use with a mutation in flight. Object data for an existing
// ID never changes; Append only grows the ID space, Tombstone only flips
// liveness. The ID space stays dense — tombstoned IDs are never reused —
// so historical IDs remain addressable (why-not questions may reference
// an object that was since removed).
type Collection struct {
	// mu serializes writers; readers go through state only.
	mu    sync.Mutex
	state atomic.Pointer[collState]
}

// collState is one immutable snapshot of the collection. Successive
// states may share backing arrays: Append writes only past the previous
// state's length, which no holder of the old state ever reads.
type collState struct {
	objs []Object
	// dead[id] marks tombstoned objects; nil means none.
	dead  []bool
	live  int
	space geo.Rect
}

// NewCollection builds a collection from objs. Object IDs must be dense
// 0..n-1 (any order); NewCollection sorts by ID and validates density so
// that later ID lookups are exact. It panics on duplicate or non-dense
// IDs, which always indicate a dataset construction bug.
func NewCollection(objs []Object) *Collection {
	sorted := make([]Object, len(objs))
	copy(sorted, objs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, o := range sorted {
		if int(o.ID) != i {
			panic(fmt.Sprintf("object: IDs must be dense 0..n-1; position %d has ID %d", i, o.ID))
		}
	}
	st := &collState{objs: sorted, live: len(sorted)}
	if len(sorted) > 0 {
		r := sorted[0].Rect()
		for _, o := range sorted[1:] {
			r = r.UnionPoint(o.Loc)
		}
		st.space = r
	}
	c := &Collection{}
	c.state.Store(st)
	return c
}

// NewCollectionWithDead builds a collection from objs with the given
// tombstone flags — the checkpoint-restore constructor. Like
// NewCollection it validates dense IDs; dead may be nil (no tombstones)
// or must have len(objs) entries. Dead objects keep contributing to the
// bounding space (see Append), so a restored collection scores queries
// byte-identically to the one that was snapshotted.
func NewCollectionWithDead(objs []Object, dead []bool) *Collection {
	c := NewCollection(objs)
	if dead == nil {
		return c
	}
	if len(dead) != len(objs) {
		panic(fmt.Sprintf("object: %d tombstone flags for %d objects", len(dead), len(objs)))
	}
	live := 0
	anyDead := false
	for _, d := range dead {
		if d {
			anyDead = true
		} else {
			live++
		}
	}
	if !anyDead {
		return c
	}
	st := c.state.Load()
	deadCopy := make([]bool, len(dead))
	copy(deadCopy, dead)
	c.state.Store(&collState{objs: st.objs, dead: deadCopy, live: live, space: st.space})
	return c
}

// Len returns the size of the ID space: live plus tombstoned objects.
// Every ID in [0, Len) is addressable via Get.
//
//yask:hotpath
func (c *Collection) Len() int { return len(c.state.Load().objs) }

// LiveLen returns the number of live (non-tombstoned) objects.
func (c *Collection) LiveLen() int { return c.state.Load().live }

// Get returns the object with the given ID. It panics on out-of-range
// IDs. Tombstoned objects remain addressable; check Alive.
//
//yask:hotpath
func (c *Collection) Get(id ID) Object { return c.state.Load().objs[id] }

// Alive reports whether id is in range and not tombstoned.
//
//yask:hotpath
func (c *Collection) Alive(id ID) bool {
	st := c.state.Load()
	if int(id) >= len(st.objs) {
		return false
	}
	return st.dead == nil || !st.dead[id]
}

// All returns the backing slice, indexed by ID and including tombstoned
// objects (use Alive to filter). Callers must not mutate it.
func (c *Collection) All() []Object { return c.state.Load().objs }

// View is an immutable point-in-time view of the collection. Builders
// that derive several quantities from the data (sizes, liveness, and
// the objects themselves) must take one View instead of calling the
// Collection accessors repeatedly: each accessor loads the latest
// state, so two calls can straddle a concurrent Append and disagree
// about the ID space.
type View struct {
	objs []Object
	dead []bool
	live int
}

// View returns a consistent snapshot view of the collection.
func (c *Collection) View() View {
	st := c.state.Load()
	return View{objs: st.objs, dead: st.dead, live: st.live}
}

// All returns the view's objects, indexed by ID. Callers must not
// mutate the slice.
func (v View) All() []Object { return v.objs }

// Len returns the view's ID-space size.
func (v View) Len() int { return len(v.objs) }

// LiveLen returns the number of live objects in the view.
func (v View) LiveLen() int { return v.live }

// Get returns the object with the given ID. It panics on IDs beyond
// the view; tombstoned objects remain addressable.
func (v View) Get(id ID) Object { return v.objs[id] }

// Alive reports whether id is in range and not tombstoned in the view.
func (v View) Alive(id ID) bool {
	if int(id) >= len(v.objs) {
		return false
	}
	return v.dead == nil || !v.dead[id]
}

// Append adds an object to the collection, assigning it the next dense
// ID (the object's own ID field is overwritten), and returns that ID.
// Safe for concurrent use with readers; concurrent writers serialize.
func (c *Collection) Append(o Object) ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	id := ID(len(st.objs))
	o.ID = id
	next := &collState{
		objs: append(st.objs, o),
		live: st.live + 1,
	}
	if st.dead != nil {
		next.dead = append(st.dead, false)
	}
	if len(st.objs) == 0 {
		next.space = o.Rect()
	} else {
		// The space only grows: shrinking it on Tombstone would silently
		// change every score's normalization constant, so removed
		// locations keep contributing to the data-space diagonal.
		next.space = st.space.UnionPoint(o.Loc)
	}
	c.state.Store(next)
	return id
}

// Tombstone marks the object as removed and reports whether it was live.
// The ID stays addressable through Get so historical references (query
// logs, why-not questions) keep resolving.
func (c *Collection) Tombstone(id ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	if int(id) >= len(st.objs) || (st.dead != nil && st.dead[id]) {
		return false
	}
	// Copy the liveness bits: holders of the old state must keep seeing
	// the object alive.
	dead := make([]bool, len(st.objs))
	copy(dead, st.dead)
	dead[id] = true
	c.state.Store(&collState{objs: st.objs, dead: dead, live: st.live - 1, space: st.space})
	return true
}

// Space returns the MBR of all object locations ever added; the zero
// Rect for an empty collection. Its diagonal is the SDist normalization
// constant. Tombstoning never shrinks it (see Append).
func (c *Collection) Space() geo.Rect { return c.state.Load().space }

// MaxDist returns the spatial normalization constant: the largest
// possible distance between a query point inside the data space and any
// object, i.e. the diagonal of the data-space MBR. For degenerate spaces
// (≤1 distinct location) it returns 1 so that SDist is well defined.
func (c *Collection) MaxDist() float64 {
	d := c.state.Load().space.Diagonal()
	if d <= 0 {
		return 1
	}
	return d
}

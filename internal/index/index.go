// The Provider/Snapshot contract itself. Package overview in doc.go.

package index

import (
	"math"
	"sync/atomic"

	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
)

// Snapshot is one immutable, consistent arena of an index: the unit a
// multi-traversal algorithm (a why-not sweep, a candidate enumeration,
// a batch) acquires once so every traversal it runs sees the same data.
//
// Scoring runs under the caller's score.Scorer; implementations must
// not substitute their own normalization constant — MaxDist exists so
// the caller can build a scorer pinned to the snapshot. The reference
// ID in CountBetter and RankBounds is a tie-break threshold, not an
// object to skip: the count is over objects whose (score, ID) pair
// strictly dominates the reference pair.
//
// Every traversal primitive takes a Cancel token and must stop within
// CheckInterval node visits of it tripping. A tripped traversal's
// return value is an undefined partial answer: the caller owns the
// context behind the token and must check it after the call, discard
// the result, and propagate ctx.Err(). Callers without a deadline pass
// NoCancel, which restores the exact pre-cancellation behavior.
type Snapshot interface {
	// MaxDist is the SDist normalization constant (the data-space
	// diagonal) captured when this snapshot was published. Scorers built
	// from it make scores deterministic even while mutations are
	// buffered: the constant and the arena always agree.
	MaxDist() float64

	// Epoch is the process-wide identity of this published state, drawn
	// from the rtree epoch counter at publication. Two snapshots with
	// equal epochs are the same immutable state, so any answer computed
	// against one is valid for the other — the invariant result caches
	// key on. Refresh and recovery both publish new epochs, silently
	// orphaning entries keyed to old ones.
	Epoch() uint64

	// TopK appends the k best objects under scorer s to dst, best first,
	// ranked by (score desc, ID asc). A non-nil shared bound lets
	// concurrent sibling searches exchange their k-th-best scores so a
	// lagging partition can prune; pass nil when searching alone.
	TopK(cc Cancel, s score.Scorer, k int, shared *Bound, dst []score.Result) []score.Result

	// CountBetter returns the number of objects whose (score, ID) pair
	// strictly dominates (refScore, tie) under scorer s, per
	// score.Better. The rank of an object o is CountBetter(s, s.Score(o),
	// o.ID) + 1 — see RankOf.
	CountBetter(cc Cancel, s score.Scorer, refScore float64, tie object.ID) int

	// RankBounds returns bounds [lo, hi] on CountBetter(s, refScore,
	// tie), descending at most maxDepth levels and bounding whole
	// subtrees from their augmentations. Families without subtree
	// cardinality summaries may return the exact count as both bounds.
	RankBounds(cc Cancel, s score.Scorer, refScore float64, tie object.ID, maxDepth int) (lo, hi int)

	// ForEachCross supports the preference-adjustment sweep: the
	// reference score line runs from m0 at wt=0 to m1 at wt=1, and the
	// index must call visit for every object whose own line is not
	// provably strictly below the reference over the whole interval.
	// Whatever it proves strictly below at both ends it may skip, a
	// whole subtree from its augmentation or a single leaf entry from
	// its exact spatial score and its keyword signature; such a line is
	// neither above the reference nor crosses it, so the sweep gains
	// nothing from it. Proofs must use strict comparisons in the float
	// expressions of score.Scorer.Components, so skipping never changes
	// the sweep. Subtrees provably strictly above at both ends may be
	// reported wholesale through above(count) instead of being visited,
	// when the family's augmentation can prove it. The reference object
	// itself may be visited; callers filter by ID. It is
	// ForEachCrossLines for the one line (m0, m1) over the window
	// [0, 1].
	ForEachCross(cc Cancel, s score.Scorer, m0, m1 float64, visit func(object.Object), above func(count int))

	// ForEachCrossLines is the crossing descent for up to MaxCrossLines
	// reference lines at once, each over its own weight window: one
	// traversal serves every missing object of a preference adjustment.
	// Each node decides each line still open for it. A subtree provably
	// strictly below a line over that line's window is dropped for the
	// line; one provably strictly above it is reported wholesale through
	// above(i, count) for lines[i], when the family's augmentation can
	// prove it. The other lines descend with the subtree. visit receives
	// each object reached for at least one line once, with the mask of
	// the lines (bit i for lines[i]) it was not settled for; a family
	// may drop lines for single leaf entries by the same below rule,
	// from the entry's exact spatial score and signature bound.
	// Decisions at the window edges 0 and 1 use strict comparisons in
	// the float expressions of score.Scorer.Components; interior edges
	// compare with a 1e-9 margin, far above their rounding, so settling
	// a subtree never changes the crossings, or the order at the
	// window's low edge, that the caller computes from exact lines.
	// The object is passed by pointer into the snapshot and must not be
	// modified or retained.
	ForEachCrossLines(cc Cancel, s score.Scorer, lines []CrossLine, visit func(o *object.Object, mask uint64), above func(line, count int))
}

// Provider owns one index's lifecycle: building, the managed mutation
// path, and checked snapshot acquisition. All implementations follow
// the copy-on-write publication protocol of rtree.SnapshotPublisher:
// mutations buffer against the live tree while queries keep serving the
// last published arena, and Refresh atomically swaps in a fresh one.
type Provider interface {
	// Acquire returns the published snapshot after verifying every
	// mutation since the freeze went through the managed path; it fails
	// with an error matching rtree.ErrStaleSnapshot otherwise.
	Acquire() (Snapshot, error)

	// Insert adds the object through the managed mutation path. It
	// becomes visible at the next Refresh.
	Insert(o object.Object)

	// Remove deletes the object (matched by ID at its location) through
	// the managed mutation path and reports whether it was present.
	Remove(o object.Object) bool

	// Refresh re-freezes the index and atomically publishes the new
	// snapshot; concurrent queries keep the old one until the swap.
	Refresh()

	// Stats returns the node-access statistics collector.
	Stats() *rtree.Stats
}

// Builder constructs one Provider over a collection, so a caller can
// build either index family without naming its package.
type Builder func(c *object.Collection) Provider

// RankOf returns the 1-based rank of object o under scorer s in the
// snapshot: one plus the number of objects strictly dominating it.
// Like every snapshot primitive it takes a Cancel token; the returned
// rank is meaningless once the token has tripped.
func RankOf(cc Cancel, sn Snapshot, s score.Scorer, o object.Object) int {
	return sn.CountBetter(cc, s, s.Score(o), o.ID) + 1
}

// Bound is a monotonically increasing score shared by concurrent top-k
// searches over disjoint partitions. Once any partition holds k
// candidates, the global k-th best score is at least that partition's
// k-th best, so every sibling may prune nodes bounded strictly below
// it. The zero value is ready to use (no bound yet — scores are never
// negative, so the initial 0 prunes nothing).
type Bound struct {
	bits atomic.Uint64
}

// Load returns the current bound.
//
//yask:hotpath
func (b *Bound) Load() float64 { return math.Float64frombits(b.bits.Load()) }

// Raise lifts the bound to x if x exceeds it; lower values are ignored,
// so the bound only tightens.
//
//yask:hotpath
func (b *Bound) Raise(x float64) {
	for {
		cur := b.bits.Load()
		if x <= math.Float64frombits(cur) {
			return
		}
		if b.bits.CompareAndSwap(cur, math.Float64bits(x)) {
			return
		}
	}
}

// Package core implements YASK's query processor (Fig. 1 of the paper):
// the spatial keyword top-k query engine and the why-not question
// answering engine with its three modules — the explanation generator,
// the preference-adjusted why-not module (Definition 2, penalty Eqn 3),
// and the keyword-adapted why-not module (Definition 3, penalty Eqn 4).
//
// The Engine owns a SetR-tree (top-k, explanations, preference
// adjustment) and a KcR-tree (keyword adaption) over one collection.
// Both are driven through the shared index.Provider/index.Snapshot
// contract, so every algorithm here acquires one consistent view per
// computation and runs against index.Snapshot primitives, never a
// concrete arena — a heap-built and an mmap-booted arena look alike.
//
// Queries run against immutable frozen snapshots of the indexes, so all
// methods — including the live-update path Insert/Remove/Refresh — are
// safe for concurrent use: a query always sees a complete, consistent
// arena, never a half-applied mutation.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/kcrtree"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/qcache"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// DefaultLambda is the default preference λ between modifying k and
// modifying w⃗/doc in the penalty functions (Eqns 3 and 4).
const DefaultLambda = 0.5

// Engine is the YASK query processor.
type Engine struct {
	coll *object.Collection

	// The two indexes plus their provider slice, through which the
	// lifecycle fan-out runs.
	set       *settree.Index
	kc        *kcrtree.Index
	providers []index.Provider

	// mu serializes the mutation path (Insert/Remove/Refresh); queries
	// never take it — they read atomically published snapshots.
	mu sync.Mutex
	// epochMu makes snapshot acquisition atomic across the two index
	// families: refreshLocked holds the write side while it republishes
	// both, acquire/acquireSet hold the read side, so a view can never
	// pair a post-refresh SetR arena with a pre-refresh KcR arena (or
	// vice versa). Mutations never take it — they buffer without
	// swapping arenas — and readers only wait while a refresh publishes.
	epochMu sync.RWMutex
	// pending counts mutations applied to the trees since the last
	// snapshot refresh; refreshEvery bounds it.
	pending         int
	refreshEvery    int
	refreshInterval time.Duration
	lastRefresh     time.Time
	// refreshTimerSet guards the single outstanding trailing-edge timer
	// that publishes mutations deferred by the interval rate limit.
	refreshTimerSet bool
	// signatures records whether the keyword-signature pruning layer is
	// active (Options.DisableSignatures inverted), for stats reporting.
	signatures bool
	// cache is the epoch-keyed result cache; nil when disabled. Answers
	// are keyed by the SetR-family epoch of the snapshot they were
	// computed against — both families always republish together under
	// epochMu, so that epoch uniquely identifies the engine's whole
	// published state.
	cache *qcache.Cache
	// subs manages continuous top-k subscriptions; re-evaluation is
	// kicked after every published epoch.
	subs *subManager
	// dur is the durability state (nil for a memory-only engine). Set
	// once by Open before the engine is shared; the mutation path reads
	// it under mu.
	dur *durability
	// closed marks an engine shut down by Close: mutations fail, queries
	// keep serving the last published snapshots. Guarded by mu.
	closed bool
}

// Options configures engine construction.
type Options struct {
	// MaxEntries is the R-tree node fanout for both indexes.
	// Zero means rtree.DefaultMaxEntries.
	MaxEntries int
	// RefreshEvery batches snapshot refreshes on the live-update path:
	// the engine re-freezes the index arenas after every RefreshEvery
	// mutations instead of after each one, amortizing the O(n) freeze
	// over a mutation storm. Until the refresh, queries serve the last
	// published snapshot (complete and consistent, minus the buffered
	// mutations). Zero or one refreshes on every mutation; Refresh
	// forces one at any time.
	RefreshEvery int
	// RefreshInterval rate-limits mutation-triggered refreshes: under a
	// mutation storm the engine re-freezes at most once per interval,
	// even when the RefreshEvery count threshold is reached, bounding
	// the O(n) freeze work a storm can cause. Mutations deferred inside
	// the window publish automatically at its trailing edge (a one-shot
	// timer), so staleness is bounded by the interval even when the
	// storm stops — or immediately through an explicit Refresh, which
	// is never rate-limited. Zero disables the rate limit.
	RefreshInterval time.Duration
	// DisableSignatures turns off the keyword-signature pruning layer:
	// the fixed-width hashed bitmaps frozen into every index arena that
	// give traversals a constant-time upper bound on keyword
	// intersections, skipping the exact merge-walks whenever the bound
	// alone is decisive. Signatures are on by default and never change
	// results (answers are byte-identical either way); the switch exists
	// for ablation measurements and as an operational escape hatch.
	DisableSignatures bool
	// CacheEntries and CacheBytes bound the epoch-keyed result cache
	// (entry count and approximate retained bytes); zero selects the
	// qcache defaults. DisableCache turns the cache off entirely — the
	// ablation and escape hatch, mirroring DisableSignatures. The cache
	// never changes answers: entries are keyed by the epoch identity of
	// the published snapshot they were computed against, so any publish
	// (refresh, recovery) silently orphans stale entries.
	CacheEntries int
	CacheBytes   int64
	DisableCache bool

	// DataDir enables durability (via Open, not NewEngine): the
	// directory holding the engine's WAL segments and checkpoint files.
	// Empty means memory-only.
	DataDir string
	// Fsync selects when a WAL append is made power-cut durable
	// (wal.SyncAlways, the zero value, acknowledges a mutation only
	// after fsync). FsyncInterval is the flush period of
	// wal.SyncInterval.
	Fsync         wal.SyncPolicy
	FsyncInterval time.Duration
	// WALSegmentSize overrides the WAL segment rotation threshold
	// (bytes); zero means wal.DefaultSegmentSize.
	WALSegmentSize int64
	// CheckpointEvery writes a snapshot checkpoint (and retires the WAL
	// segments it covers) after this many logged mutations; zero means
	// checkpoints happen only through explicit Checkpoint calls and at
	// shutdown.
	CheckpointEvery int
	// MmapArenas persists the frozen index arenas alongside every
	// checkpoint (arena-<family>-<lsn>.yar, see docs/FORMATS.md) and
	// boots by mmap'ing the newest set matching the restored checkpoint
	// instead of rebuilding the indexes — recovery skips the bulk-load
	// and the first mutation thaws a live tree on demand. Any damaged,
	// missing, or incompatible arena file falls back to the ordinary
	// rebuild (reason recorded in DurabilityStats.Arena), never a wrong
	// answer. Ignored for memory-only engines; requires Open.
	MmapArenas bool
	// Vocab is the vocabulary the collection's keyword sets are interned
	// in. Durability needs it to spell keyword IDs back into strings for
	// WAL records and checkpoints (and to re-intern them on replay), so
	// recovery is independent of vocabulary ID assignment order.
	// Required when DataDir is set.
	Vocab *vocab.Vocabulary
	// WrapWALFile is the fault-injection hook passed through to
	// wal.Options.WrapFile; tests only.
	WrapWALFile func(*os.File) wal.File
}

// NewEngine builds the engine (both indexes) over the collection.
func NewEngine(c *object.Collection, opts Options) *Engine {
	return newEngineWith(c, opts, nil, nil)
}

// newEngineWith is NewEngine with optionally pre-built indexes: the
// mmap-arena boot path (Open) loads both families from
// checkpoint-consistent arena files and passes them in, skipping the
// bulk-load rebuild. Both must be non-nil together, built over c, and
// configured consistently with opts; nil/nil builds them here.
func newEngineWith(c *object.Collection, opts Options, set *settree.Index, kc *kcrtree.Index) *Engine {
	maxE := opts.MaxEntries
	if maxE == 0 {
		maxE = rtree.DefaultMaxEntries
	}
	refreshEvery := opts.RefreshEvery
	if refreshEvery < 1 {
		refreshEvery = 1
	}
	e := &Engine{
		coll:            c,
		refreshEvery:    refreshEvery,
		refreshInterval: opts.RefreshInterval,
		lastRefresh:     time.Now(),
		signatures:      !opts.DisableSignatures,
	}
	if !opts.DisableCache {
		e.cache = qcache.New(opts.CacheEntries, opts.CacheBytes)
	}
	e.subs = newSubManager(e)
	if set != nil && kc != nil {
		e.set, e.kc = set, kc
	} else {
		e.set = settree.BuildWith(c, maxE, e.signatures)
		e.kc = kcrtree.BuildWith(c, maxE, e.signatures)
	}
	e.providers = []index.Provider{e.set, e.kc}
	return e
}

// engineView is one consistent cross-index acquisition: the SetR-family
// snapshot the top-k and explanation paths run on and the KcR-family
// snapshot the rank-bound machinery runs on, taken together so a whole
// why-not computation sees one arena set. Both fields are
// index.Snapshots, which keeps every algorithm in this package
// independent of how the arena was built or booted.
type engineView struct {
	set index.Snapshot
	kc  index.Snapshot
}

// acquire returns the current cross-index view, atomically with
// respect to refreshes. It fails with an error matching
// rtree.ErrStaleSnapshot if any index was mutated outside the managed
// path.
func (e *Engine) acquire() (engineView, error) {
	e.epochMu.RLock()
	defer e.epochMu.RUnlock()
	sa, err := e.set.Snapshot()
	if err != nil {
		return engineView{}, err
	}
	ka, err := e.kc.Snapshot()
	if err != nil {
		return engineView{}, err
	}
	return engineView{set: sa, kc: ka}, nil
}

// acquireSet returns only the SetR-family snapshot — the cheaper
// acquisition for the paths that never touch the rank-bound machinery
// (top-k, rank, batches).
func (e *Engine) acquireSet() (index.Snapshot, error) {
	e.epochMu.RLock()
	defer e.epochMu.RUnlock()
	return e.set.Acquire()
}

// setScorer builds a scorer for q pinned to the snapshot's
// normalization constant.
func setScorer(sn index.Snapshot, q score.Query) score.Scorer {
	return score.Scorer{Query: q, MaxDist: sn.MaxDist()}
}

// Insert adds a new object to the collection and both indexes and
// returns its assigned ID. The o.ID field is ignored; IDs stay dense.
// The new object becomes visible to queries at the next snapshot refresh
// (immediately unless Options.RefreshEvery or Options.RefreshInterval
// batches mutations).
func (e *Engine) Insert(o object.Object) (object.ID, error) {
	if o.Doc.Empty() {
		return 0, errors.New("core: object needs at least one keyword")
	}
	if !o.Doc.Canonical() {
		return 0, errors.New("core: object keyword set not canonical")
	}
	if math.IsNaN(o.Loc.X) || math.IsInf(o.Loc.X, 0) ||
		math.IsNaN(o.Loc.Y) || math.IsInf(o.Loc.Y, 0) {
		return 0, fmt.Errorf("core: object location %v is not finite", o.Loc)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, errEngineClosed
	}
	// Write-ahead: the mutation is logged (and acknowledged per the
	// fsync policy) before any in-memory state changes, so recovery
	// replays exactly the acknowledged sequence in global-ID order. A
	// failed append leaves the engine untouched.
	if e.dur != nil {
		if err := e.dur.logInsert(object.ID(e.coll.Len()), o); err != nil {
			return 0, err
		}
	}
	id := e.applyInsertLocked(o)
	e.subs.noteInsert(e.coll.Get(id))
	e.bumpPendingLocked()
	e.maybeCheckpointLocked()
	return id, nil
}

var errEngineClosed = errors.New("core: engine is closed")

// ErrAlreadyRemoved reports a Remove of an object that is already
// tombstoned. Callers distinguish it with errors.Is, never by matching
// error text.
var ErrAlreadyRemoved = errors.New("already removed")

// applyInsertLocked performs the in-memory half of an insert: append to
// the collection (assigning the next dense global ID) and insert into
// both indexes. Shared by the live mutation path and WAL replay —
// both run under mu and in global-ID order, which is what keeps a
// recovered engine byte-identical to the original.
func (e *Engine) applyInsertLocked(o object.Object) object.ID {
	id := e.coll.Append(o)
	o = e.coll.Get(id) // pick up the assigned ID
	for _, p := range e.providers {
		p.Insert(o)
	}
	return id
}

// Remove tombstones the object and deletes it from both indexes. The ID
// remains addressable (why-not questions over old sessions keep
// resolving) but the object stops appearing in results at the next
// snapshot refresh.
func (e *Engine) Remove(id object.ID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errEngineClosed
	}
	if int(id) >= e.coll.Len() {
		return fmt.Errorf("core: unknown object ID %d", id)
	}
	// Reject before logging: only accepted mutations reach the WAL.
	// Under mu the aliveness check cannot race the apply below.
	if !e.coll.Alive(id) {
		return fmt.Errorf("core: object %d: %w", id, ErrAlreadyRemoved)
	}
	if e.dur != nil {
		if err := e.dur.logRemove(id); err != nil {
			return err
		}
	}
	e.applyRemoveLocked(id)
	e.subs.noteRemove(id)
	e.bumpPendingLocked()
	e.maybeCheckpointLocked()
	return nil
}

// applyRemoveLocked performs the in-memory half of a remove; the caller
// has verified id is in range and alive.
func (e *Engine) applyRemoveLocked(id object.ID) {
	e.coll.Tombstone(id)
	o := e.coll.Get(id)
	for _, p := range e.providers {
		p.Remove(o)
	}
}

// Refresh re-freezes both index arenas and atomically publishes them, making every buffered mutation visible
// to queries. The copy-on-write freeze runs off the query path:
// concurrent queries keep traversing the old snapshots until the swap.
// Explicit refreshes are never debounced.
func (e *Engine) Refresh() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshLocked()
}

func (e *Engine) bumpPendingLocked() {
	e.pending++
	if e.pending < e.refreshEvery {
		return
	}
	if e.refreshInterval > 0 {
		if wait := e.refreshInterval - time.Since(e.lastRefresh); wait > 0 {
			// Mid-storm: the count threshold fired inside the rate-limit
			// window. Keep buffering, and arm one trailing-edge timer so
			// the buffered mutations publish at the window's end even if
			// the storm stops — staleness stays bounded by the interval.
			if !e.refreshTimerSet {
				e.refreshTimerSet = true
				time.AfterFunc(wait, e.trailingRefresh)
			}
			return
		}
	}
	e.refreshLocked()
}

// trailingRefresh is the interval rate limit's trailing edge: it
// publishes whatever is still buffered when the window closes.
func (e *Engine) trailingRefresh() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshTimerSet = false
	if e.pending == 0 {
		return
	}
	if wait := e.refreshInterval - time.Since(e.lastRefresh); wait > 0 {
		// An explicit Refresh moved the window forward while this timer
		// was armed; re-arm for the new trailing edge instead of
		// re-freezing inside the window — the rate limit stays
		// at-most-once-per-interval.
		e.refreshTimerSet = true
		time.AfterFunc(wait, e.trailingRefresh)
		return
	}
	e.refreshLocked()
}

func (e *Engine) refreshLocked() {
	e.epochMu.Lock()
	for _, p := range e.providers {
		p.Refresh()
	}
	e.epochMu.Unlock()
	e.pending = 0
	e.lastRefresh = time.Now()
	e.postPublishLocked()
}

// postPublishLocked runs after every epoch publication, still under the mutation lock: it reclaims result-cache
// entries orphaned by the old epoch and hands the new snapshot plus the
// closed mutation window to the subscription manager. Both are
// off-query-path bookkeeping; subscription evaluation itself runs on
// the manager's drain goroutine.
func (e *Engine) postPublishLocked() {
	if e.cache == nil && e.subs == nil {
		return
	}
	sn, err := e.acquireSet()
	if err != nil {
		return
	}
	e.cache.PurgeBelow(sn.Epoch())
	e.subs.kick(sn)
}

// PendingMutations returns the number of mutations buffered since the
// last snapshot refresh (always 0 unless Options.RefreshEvery or
// Options.RefreshInterval batches mutations).
func (e *Engine) PendingMutations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}

// Collection returns the indexed collection.
func (e *Engine) Collection() *object.Collection { return e.coll }

// SetIndex returns the engine's SetR-tree.
func (e *Engine) SetIndex() *settree.Index { return e.set }

// ShardStats is the index row of EngineStats.
type ShardStats struct {
	// Objects is the size of the ID space, Live the number of live
	// (non-tombstoned) objects in it.
	Objects int `json:"objects"`
	Live    int `json:"live"`
	// SetNodeAccesses and KcNodeAccesses are the cumulative index node
	// accesses of the two indexes.
	SetNodeAccesses int64 `json:"setNodeAccesses"`
	KcNodeAccesses  int64 `json:"kcNodeAccesses"`
	// SetSigProbes/SetSigHits and KcSigProbes/KcSigHits are the
	// keyword-signature pruning counters per index family: probes are
	// signature bounds consulted, hits the decisive ones (each an exact
	// keyword set operation skipped).
	SetSigProbes int64 `json:"setSigProbes"`
	SetSigHits   int64 `json:"setSigHits"`
	KcSigProbes  int64 `json:"kcSigProbes"`
	KcSigHits    int64 `json:"kcSigHits"`
}

// EngineStats is the engine's execution snapshot: collection size,
// buffered mutations, and index statistics.
type EngineStats struct {
	Objects int     `json:"objects"`
	Live    int     `json:"live"`
	Pending int     `json:"pendingMutations"`
	MaxDist float64 `json:"maxDist"`
	// Signatures reports whether the keyword-signature pruning layer is
	// active; SigProbes/SigHits aggregate the per-family counters and
	// SigHitRate is hits/probes (0 when never probed) —
	// the fraction of textual evaluations answered by a constant-time
	// bitmap bound instead of an exact keyword merge-walk.
	Signatures bool    `json:"signatures"`
	SigProbes  int64   `json:"sigProbes"`
	SigHits    int64   `json:"sigHits"`
	SigHitRate float64 `json:"sigHitRate"`
	// PerShard is a one-row array of index counters. It keeps the name
	// and shape it had when the engine could be partitioned, because
	// the served-path benchmark reads GET /api/stats' perShard[0].
	PerShard []ShardStats `json:"perShard"`
	// Cache reports the epoch-keyed result cache; nil when disabled.
	Cache *CacheStats `json:"cache,omitempty"`
	// Subscriptions reports the continuous-query counters.
	Subscriptions *SubscriptionStats `json:"subscriptions,omitempty"`
	// Durability reports the WAL/checkpoint state; nil for a memory-only
	// engine.
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// CacheStats is the result cache's row of EngineStats.
type CacheStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// HitRate is Hits / (Hits + Misses), 0 before any lookup.
	HitRate   float64 `json:"hitRate"`
	Evictions int64   `json:"evictions"`
	// OrphanedEpochs counts epochs that still held entries when a
	// publish-triggered purge dropped them.
	OrphanedEpochs int64 `json:"orphanedEpochs"`
}

// Stats reports the engine's execution statistics.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Objects:    e.coll.Len(),
		Live:       e.coll.LiveLen(),
		Pending:    e.PendingMutations(),
		MaxDist:    e.coll.MaxDist(),
		Signatures: e.signatures,
	}
	st.Durability = e.durabilityStats()
	if e.cache != nil {
		cs := e.cache.Stats()
		st.Cache = &CacheStats{
			Entries:        cs.Entries,
			Bytes:          cs.Bytes,
			Hits:           cs.Hits,
			Misses:         cs.Misses,
			HitRate:        cs.HitRate(),
			Evictions:      cs.Evictions,
			OrphanedEpochs: cs.OrphanedEpochs,
		}
	}
	if e.subs != nil {
		ss := e.subs.stats()
		st.Subscriptions = &ss
	}
	setS, kcS := e.set.Stats(), e.kc.Stats()
	st.PerShard = []ShardStats{{
		Objects:         st.Objects,
		Live:            st.Live,
		SetNodeAccesses: setS.NodeAccesses(),
		KcNodeAccesses:  kcS.NodeAccesses(),
		SetSigProbes:    setS.SigProbes(),
		SetSigHits:      setS.SigHits(),
		KcSigProbes:     kcS.SigProbes(),
		KcSigHits:       kcS.SigHits(),
	}}
	st.finishSigTotals()
	return st
}

// finishSigTotals aggregates the per-family signature counters into
// the engine-level totals and hit rate.
func (st *EngineStats) finishSigTotals() {
	for _, row := range st.PerShard {
		st.SigProbes += row.SetSigProbes + row.KcSigProbes
		st.SigHits += row.SetSigHits + row.KcSigHits
	}
	if st.SigProbes > 0 {
		st.SigHitRate = float64(st.SigHits) / float64(st.SigProbes)
	}
}

// TopK answers a spatial keyword top-k query (Definition 1).
func (e *Engine) TopK(q score.Query) ([]score.Result, error) {
	return e.TopKAppendCtx(context.Background(), q, nil)
}

// TopKCtx is TopK under a context: the search polls the context's
// cancellation signal every ≤ index.CheckInterval node visits, and a
// canceled or deadline-expired query returns ctx.Err() with no result
// (and stores nothing in the result cache).
func (e *Engine) TopKCtx(ctx context.Context, q score.Query) ([]score.Result, error) {
	return e.TopKAppendCtx(ctx, q, nil)
}

// TopKAppend is TopK appending into a caller-owned buffer — the
// allocation-free warm path: on a result-cache hit the cached entry is
// copied straight into dst (zero allocations once dst has capacity),
// and on a miss the index search itself appends into dst and the
// freshly computed answer is stored for the next repeat.
func (e *Engine) TopKAppend(q score.Query, dst []score.Result) ([]score.Result, error) {
	return e.TopKAppendCtx(context.Background(), q, dst)
}

// TopKAppendCtx is TopKAppend under a context; see TopKCtx for the
// cancellation contract. On error dst is returned truncated to its
// original length, so callers can keep reusing their buffer.
func (e *Engine) TopKAppendCtx(ctx context.Context, q score.Query, dst []score.Result) ([]score.Result, error) {
	if err := q.Validate(); err != nil {
		return dst, err
	}
	sn, err := e.acquireSet()
	if err != nil {
		return dst, err
	}
	return e.topKOn(ctx, sn, q, dst)
}

// topKOn answers q against the acquired snapshot through the result
// cache: epoch-keyed hit, or compute-and-store. Results append to dst.
// Shared by the single-query path, the batch executor, and the
// subscription evaluator, so every repeat of a query — wherever it
// comes from — lands on the same entry.
//
// Cancellation discipline: a canceled search returns dst truncated back
// to its original length together with ctx.Err(), and the partial
// answer is never stored — the result cache only ever holds complete
// answers, so a shed or abandoned request cannot poison later repeats.
func (e *Engine) topKOn(ctx context.Context, sn index.Snapshot, q score.Query, dst []score.Result) ([]score.Result, error) {
	epoch := sn.Epoch()
	if res, ok := e.cache.GetTopK(epoch, q, dst); ok {
		return res, nil
	}
	base := len(dst)
	dst = sn.TopK(index.CancelOf(ctx), setScorer(sn, q), q.K, nil, dst)
	if err := ctx.Err(); err != nil {
		return dst[:base], err
	}
	e.cache.PutTopK(epoch, q, dst[base:])
	return dst, nil
}

// Rank returns the 1-based rank of an object under the query.
func (e *Engine) Rank(q score.Query, id object.ID) (int, error) {
	return e.RankCtx(context.Background(), q, id)
}

// RankCtx is Rank under a context; see TopKCtx for the cancellation
// contract.
func (e *Engine) RankCtx(ctx context.Context, q score.Query, id object.ID) (int, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if int(id) >= e.coll.Len() {
		return 0, fmt.Errorf("core: unknown object ID %d", id)
	}
	if !e.coll.Alive(id) {
		return 0, fmt.Errorf("core: object %d has been removed", id)
	}
	sn, err := e.acquireSet()
	if err != nil {
		return 0, err
	}
	return e.rankOn(ctx, sn, setScorer(sn, q), e.coll.Get(id))
}

// rankOn returns o's 1-based rank under s on the SetR-family snapshot sn
// through the epoch-keyed KindRank cache — the one rank path of Rank
// and of every why-not follow-up, so a session's explain, preference
// and keyword questions rank each missing object once per epoch. A
// canceled traversal is an undefined partial count: it returns ctx.Err()
// and stores nothing.
func (e *Engine) rankOn(ctx context.Context, sn index.Snapshot, s score.Scorer, o object.Object) (int, error) {
	epoch := sn.Epoch()
	extra := [1]uint64{uint64(o.ID)}
	if v, ok := e.cache.GetValue(epoch, qcache.KindRank, s.Query, extra[:]); ok {
		return v.(int), nil
	}
	rank := index.RankOf(index.CancelOf(ctx), sn, s, o)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	e.cache.PutValue(epoch, qcache.KindRank, s.Query, extra[:], rank)
	return rank, nil
}

// whyNot is a validated why-not question against one SetR-family
// snapshot.
type whyNot struct {
	// s is the initial query's scorer, pinned to the snapshot.
	s score.Scorer
	// objs are the missing objects in request order; ranks[i] is objs[i]'s
	// rank under the initial query.
	objs  []object.Object
	ranks []int
	// worst is R(M, q), the lowest (worst) rank of any missing object —
	// the normalization constant of both penalty functions.
	worst int
}

// validateWhyNot checks the common preconditions of the why-not
// operations against an already-acquired SetR-family snapshot: a valid
// initial query and a non-empty missing set of objects that are
// genuinely absent from the initial result (rank > k). The ranks come
// from rankOn, so repeat follow-ups on one epoch reuse them.
func (e *Engine) validateWhyNot(ctx context.Context, sn index.Snapshot, q score.Query, missing []object.ID) (whyNot, error) {
	if err := q.Validate(); err != nil {
		return whyNot{}, err
	}
	if len(missing) == 0 {
		return whyNot{}, errors.New("core: why-not question needs at least one missing object")
	}
	w := whyNot{
		s:     setScorer(sn, q),
		objs:  make([]object.Object, 0, len(missing)),
		ranks: make([]int, 0, len(missing)),
	}
	seen := make(map[object.ID]bool, len(missing))
	for _, id := range missing {
		if int(id) >= e.coll.Len() {
			return whyNot{}, fmt.Errorf("core: unknown object ID %d", id)
		}
		if !e.coll.Alive(id) {
			return whyNot{}, fmt.Errorf("core: object %d has been removed", id)
		}
		if seen[id] {
			return whyNot{}, fmt.Errorf("core: duplicate missing object %d", id)
		}
		seen[id] = true
		o := e.coll.Get(id)
		rank, err := e.rankOn(ctx, sn, w.s, o)
		if err != nil {
			// A canceled rank is an undefined partial count; it must not
			// drive the already-in-top-k rejection below.
			return whyNot{}, err
		}
		if rank <= q.K {
			return whyNot{}, fmt.Errorf(
				"core: object %d is already in the top-%d result (rank %d); not a why-not question", id, q.K, rank)
		}
		w.worst = max(w.worst, rank)
		w.objs = append(w.objs, o)
		w.ranks = append(w.ranks, rank)
	}
	return w, nil
}

// MissingDocUnion returns M.doc = ⋃ o.doc over the missing objects, the
// keyword universe of the Δdoc normalization in Eqn 4.
func MissingDocUnion(objs []object.Object) vocab.KeywordSet {
	var u vocab.KeywordSet
	for _, o := range objs {
		u = u.Union(o.Doc)
	}
	return u
}

// validateLambda rejects λ outside [0, 1].
func validateLambda(lambda float64) error {
	if lambda < 0 || lambda > 1 {
		return fmt.Errorf("core: lambda %v outside [0, 1]", lambda)
	}
	return nil
}

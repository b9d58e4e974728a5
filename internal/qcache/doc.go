// Package qcache is the epoch-keyed result cache: a sharded, bounded
// LRU mapping (epoch identity, canonical query key) to computed
// answers. Every answer the engine produces is a pure function of the
// published snapshot it was computed against, and each published state
// carries a process-wide unique epoch (rtree.NextEpoch), so an entry
// keyed by the epoch it was computed at can never go stale: a refresh
// or recovery publishes a new epoch and silently orphans the old
// entries. Invalidation is free — eviction is the only policy.
//
// The canonical query key is the query itself: keyword sets are interned
// in sorted, deduplicated form at the API boundary (vocab.InternSet via
// yask.buildQuery), weights and similarity are defaulted in exactly one
// place, so semantically identical requests compare equal here. Hashes
// mix every scoring-relevant field; hits verify full equality, so a
// hash collision degrades to a miss, never a wrong answer.
//
// The top-k hit path is allocation-free: cached results are immutable
// slices copied into the caller-owned destination buffer, in the
// TopKAppend shape the index arenas use.
//
// internal/core consults the cache on TopK/TopKAppend, Rank, Explain,
// AdjustPreference, and TopKBatch, and purges orphaned epochs
// (PurgeBelow) after every publish; equivalence property tests in
// internal/core pin cached == uncached across mutations, refreshes,
// and crash recovery. docs/ARCHITECTURE.md places the
// cache in the request path.
package qcache

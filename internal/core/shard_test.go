package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
)

// cloneCollection returns an independent collection with the same
// objects, so two engines can apply identical mutation sequences
// without sharing state.
func cloneCollection(c *object.Collection) *object.Collection {
	objs := make([]object.Object, c.Len())
	copy(objs, c.All())
	coll := object.NewCollection(objs)
	for id := 0; id < c.Len(); id++ {
		if !c.Alive(object.ID(id)) {
			coll.Tombstone(object.ID(id))
		}
	}
	return coll
}

// assertSameResults fails unless the two result lists are byte-identical
// in IDs and scores.
func assertSameResults(t *testing.T, ctx string, got, want []score.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Obj.ID != want[i].Obj.ID || got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d: got (%d, %v), want (%d, %v)",
				ctx, i, got[i].Obj.ID, got[i].Score, want[i].Obj.ID, want[i].Score)
		}
	}
}

// assertEquivalent drives the full query surface of both engines and
// fails on any divergence: top-k (several k), batch top-k, ranks,
// explanations, and both why-not refinement modules.
func assertEquivalent(t *testing.T, ctx string, single, sharded *Engine, qs []score.Query) {
	t.Helper()
	for qi, q := range qs {
		for _, k := range []int{1, 3, 10, 40} {
			qk := q
			qk.K = k
			want, err := single.TopK(qk)
			if err != nil {
				t.Fatalf("%s q%d k=%d: single: %v", ctx, qi, k, err)
			}
			got, err := sharded.TopK(qk)
			if err != nil {
				t.Fatalf("%s q%d k=%d: sharded: %v", ctx, qi, k, err)
			}
			assertSameResults(t, ctx, got, want)
		}

		missing := missingFromResult(single, q, 2)
		if len(missing) < 2 {
			continue
		}
		for _, id := range missing {
			w, err1 := single.Rank(q, id)
			g, err2 := sharded.Rank(q, id)
			if err1 != nil || err2 != nil || g != w {
				t.Fatalf("%s q%d: rank(%d) = %d (%v), want %d (%v)", ctx, qi, id, g, err2, w, err1)
			}
		}

		wantEx, err1 := single.Explain(q, missing)
		gotEx, err2 := sharded.Explain(q, missing)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: explain errs %v / %v", ctx, qi, err1, err2)
		}
		for i := range wantEx {
			if gotEx[i].Rank != wantEx[i].Rank || gotEx[i].Score != wantEx[i].Score ||
				gotEx[i].Reason != wantEx[i].Reason {
				t.Fatalf("%s q%d: explanation %d diverges: got (rank %d, %v, %v), want (rank %d, %v, %v)",
					ctx, qi, i, gotEx[i].Rank, gotEx[i].Score, gotEx[i].Reason,
					wantEx[i].Rank, wantEx[i].Score, wantEx[i].Reason)
			}
		}

		wantP, err1 := single.AdjustPreference(q, missing, PreferenceOptions{Lambda: 0.5})
		gotP, err2 := sharded.AdjustPreference(q, missing, PreferenceOptions{Lambda: 0.5})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: preference errs %v / %v", ctx, qi, err1, err2)
		}
		if gotP.Refined.W != wantP.Refined.W || gotP.Refined.K != wantP.Refined.K ||
			gotP.Penalty != wantP.Penalty || gotP.DeltaK != wantP.DeltaK ||
			gotP.RankBefore != wantP.RankBefore || gotP.RankAfter != wantP.RankAfter {
			t.Fatalf("%s q%d: preference diverges:\n got %+v\nwant %+v", ctx, qi, gotP, wantP)
		}

		wantK, err1 := single.AdaptKeywords(q, missing[:1], KeywordOptions{Lambda: 0.5})
		gotK, err2 := sharded.AdaptKeywords(q, missing[:1], KeywordOptions{Lambda: 0.5})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: keyword errs %v / %v", ctx, qi, err1, err2)
		}
		// Candidate counters may differ (per-shard rank bounds prune
		// differently) but the optimum must not.
		if !gotK.Refined.Doc.Equal(wantK.Refined.Doc) || gotK.Refined.K != wantK.Refined.K ||
			gotK.Penalty != wantK.Penalty || gotK.DeltaK != wantK.DeltaK ||
			gotK.DeltaDoc != wantK.DeltaDoc || gotK.RankBefore != wantK.RankBefore ||
			gotK.RankAfter != wantK.RankAfter {
			t.Fatalf("%s q%d: keyword diverges:\n got %+v\nwant %+v", ctx, qi, gotK, wantK)
		}
	}

	// Batch executor: the (job × shard) grid must gather exactly.
	wantB, err1 := single.TopKBatch(qs, BatchOptions{Workers: 4})
	gotB, err2 := sharded.TopKBatch(qs, BatchOptions{Workers: 4})
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: batch errs %v / %v", ctx, err1, err2)
	}
	for i := range wantB {
		assertSameResults(t, ctx+" batch", gotB[i], wantB[i])
	}
}

// TestShardedEngineEquivalence is the property-style acceptance test of
// the sharded executor: across random datasets, shard counts, k values,
// and mutation interleavings, every answer of the sharded engine —
// top-k IDs and scores, ranks, explanations, preference and keyword
// refinements — is identical to the unsharded engine's.
func TestShardedEngineEquivalence(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		ds, err := dataset.Generate(dataset.DefaultConfig(500, seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4, 7} {
			single := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
			sharded := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, Shards: shards})
			if got := sharded.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			qs := dataset.Workload(ds, dataset.WorkloadConfig{
				Queries: 4, Seed: seed + 100, K: 5, Keywords: 2,
				W: score.DefaultWeights, FromObjectDocs: true,
			})
			assertEquivalent(t, ctxName("fresh", seed, shards), single, sharded, qs)

			// Identical mutation interleaving on both engines: inserts
			// (some outside the original data space), removes, and the
			// default refresh-per-mutation lifecycle.
			rng := rand.New(rand.NewSource(seed + 7))
			space := ds.Objects.Space()
			var added []object.ID
			for i := 0; i < 40; i++ {
				if i%4 == 3 && len(added) > 0 {
					id := added[rng.Intn(len(added))]
					e1, e2 := single.Remove(id), sharded.Remove(id)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("remove(%d) diverges: %v vs %v", id, e1, e2)
					}
					continue
				}
				src := ds.Objects.Get(object.ID(rng.Intn(ds.Objects.Len())))
				o := object.Object{Loc: src.Loc, Doc: src.Doc, Name: "mut"}
				if i%10 == 5 {
					o.Loc.X = space.Max.X + rng.Float64() // out-of-space growth
				}
				id1, err1 := single.Insert(o)
				id2, err2 := sharded.Insert(o)
				if err1 != nil || err2 != nil || id1 != id2 {
					t.Fatalf("insert diverges: (%d, %v) vs (%d, %v)", id1, err1, id2, err2)
				}
				added = append(added, id1)
			}
			assertEquivalent(t, ctxName("mutated", seed, shards), single, sharded, qs)
		}
	}
}

func ctxName(phase string, seed int64, shards int) string {
	return fmt.Sprintf("%s/seed=%d/shards=%d", phase, seed, shards)
}

// TestShardedBufferedEquivalence: with mutation batching the two
// backends also agree while mutations are buffered — both serve the
// last published snapshot under the snapshot-scoped normalization
// constant.
func TestShardedBufferedEquivalence(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(300, 31))
	if err != nil {
		t.Fatal(err)
	}
	single := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, RefreshEvery: 100})
	sharded := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, RefreshEvery: 100, Shards: 4})
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 3, Seed: 32, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	space := ds.Objects.Space()
	for i := 0; i < 10; i++ {
		src := ds.Objects.Get(object.ID(i * 7))
		o := object.Object{Loc: src.Loc, Doc: src.Doc}
		if i == 4 {
			o.Loc.X = space.Max.X * 2 // grows the live constant, not the snapshot's
		}
		if _, err := single.Insert(o); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	if single.PendingMutations() != 10 || sharded.PendingMutations() != 10 {
		t.Fatalf("pending = %d / %d, want 10", single.PendingMutations(), sharded.PendingMutations())
	}
	assertEquivalent(t, "buffered", single, sharded, qs)
	single.Refresh()
	sharded.Refresh()
	assertEquivalent(t, "refreshed", single, sharded, qs)
}

// TestRefreshIntervalDebounce: with a rate limit configured, the count
// threshold alone does not trigger a re-freeze inside the window;
// buffered mutations publish on the first trigger past it or on an
// explicit Refresh.
func TestRefreshIntervalDebounce(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(200, 41))
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 42, K: 3, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, RefreshInterval: time.Hour})

	before, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	// A winner at the query point would take rank 1 the moment a refresh
	// publishes it.
	winner := object.Object{Loc: q.Loc, Doc: q.Doc}
	for i := 0; i < 5; i++ {
		if _, err := e.Insert(winner); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.PendingMutations(); got != 5 {
		t.Fatalf("pending = %d, want 5 (interval must debounce the count trigger)", got)
	}
	mid, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "debounced", mid, before)

	e.Refresh() // explicit refresh is never rate-limited
	if got := e.PendingMutations(); got != 0 {
		t.Fatalf("pending after Refresh = %d", got)
	}
	after, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	// The inserted winner scores the maximal 1.0 (zero distance, exact
	// keyword match); only a seed object that already scored 1.0 can
	// outrank it on the ID tie-break.
	if len(after) == 0 || (int(after[0].Obj.ID) < ds.Objects.Len() && after[0].Score != 1) {
		t.Fatalf("inserted winner not published by Refresh: %+v", after[0])
	}

	// The trailing edge of the window publishes deferred mutations on
	// its own: staleness is bounded by the interval even when the storm
	// stops after one mutation.
	e2 := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, RefreshInterval: 30 * time.Millisecond})
	if _, err := e2.Insert(winner); err != nil {
		t.Fatal(err)
	}
	if e2.PendingMutations() != 1 {
		t.Fatalf("pending = %d, want 1 (deferred inside the window)", e2.PendingMutations())
	}
	deadline := time.Now().Add(2 * time.Second)
	for e2.PendingMutations() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("trailing-edge timer never published the deferred mutation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotScopedMaxDist: an out-of-space insert buffered behind
// RefreshEvery must not shift the scores of queries against the old
// arena — the normalization constant is captured inside the published
// snapshot, not read live from the collection.
func TestSnapshotScopedMaxDist(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(200, 51))
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: 52, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
	for _, shards := range []int{1, 4} {
		coll := cloneCollection(ds.Objects)
		e := NewEngine(coll, Options{MaxEntries: 16, RefreshEvery: 100, Shards: shards})
		before, err := e.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		oldMax := coll.MaxDist()

		far := object.Object{
			Loc: coll.Space().Max,
			Doc: ds.Objects.Get(0).Doc,
		}
		far.Loc.X += 100 * oldMax // grows the live constant dramatically
		if _, err := e.Insert(far); err != nil {
			t.Fatal(err)
		}
		if coll.MaxDist() <= oldMax {
			t.Fatal("out-of-space insert did not grow the live constant")
		}

		mid, err := e.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic window: scores are byte-identical to before the
		// insert, because the snapshot pins both arena and constant.
		assertSameResults(t, "pinned constant", mid, before)

		e.Refresh()
		after, err := e.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		// The refreshed snapshot scores under the grown constant: every
		// normalized distance shrank, so the top score strictly grew
		// unless the winner sat exactly on the query point.
		if len(after) == 0 {
			t.Fatal("no results after refresh")
		}
		if after[0].Score < before[0].Score {
			t.Fatalf("shards=%d: top score shrank after constant growth: %v -> %v",
				shards, before[0].Score, after[0].Score)
		}
	}
}

// TestShardedEngineStorm exercises the sharded engine under the race
// detector: concurrent top-k and why-not traffic against an
// insert/remove/refresh storm, with zero failed queries.
func TestShardedEngineStorm(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(300, 61))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, Shards: 4, RefreshEvery: 3})
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 6, Seed: 62, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(i+w)%len(qs)]
				if _, err := e.TopK(q); err != nil {
					t.Errorf("worker %d: TopK: %v", w, err)
					return
				}
				if i%10 == 0 {
					if missing := missingFromSharded(e, q, 1); len(missing) == 1 {
						// The storm may revive or remove the target
						// between picking and asking (a validation
						// error, fine); a stale snapshot is a bug.
						if _, err := e.AdaptKeywords(q, missing, KeywordOptions{Lambda: 0.5, MaxEdits: 1}); err != nil && errors.Is(err, rtree.ErrStaleSnapshot) {
							t.Errorf("worker %d: stale snapshot: %v", w, err)
							return
						}
					}
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(63))
	var added []object.ID
	for i := 0; i < 200; i++ {
		if i%4 == 3 && len(added) > 0 {
			j := rng.Intn(len(added))
			_ = e.Remove(added[j])
			added = append(added[:j], added[j+1:]...)
			continue
		}
		src := ds.Objects.Get(object.ID(rng.Intn(ds.Objects.Len())))
		id, err := e.Insert(object.Object{Loc: src.Loc, Doc: src.Doc})
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}
	e.Refresh()
	close(stop)
	wg.Wait()
}

// missingFromSharded mirrors missingFromResult for engines whose
// single-backend set index is nil.
func missingFromSharded(e *Engine, q score.Query, count int) []object.ID {
	extended := q
	extended.K = q.K + count
	res, err := e.TopK(extended)
	if err != nil || len(res) <= q.K {
		return nil
	}
	ids := make([]object.ID, 0, count)
	for _, r := range res[q.K:] {
		ids = append(ids, r.Obj.ID)
	}
	return ids
}

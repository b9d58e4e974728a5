package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
)

func liveTestEngine(t *testing.T, n int, seed int64, opts Options) (*Engine, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxEntries == 0 {
		opts.MaxEntries = 16
	}
	return NewEngine(ds.Objects, opts), ds
}

func liveQuery(ds *dataset.Dataset, seed int64) score.Query {
	return dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 1, Seed: seed, K: 5, Keywords: 2,
		W: score.DefaultWeights, FromObjectDocs: true,
	})[0]
}

func TestEngineInsertVisibleAfterAutoRefresh(t *testing.T) {
	e, ds := liveTestEngine(t, 300, 90, Options{})
	q := liveQuery(ds, 91)

	id, err := e.Insert(object.Object{Loc: q.Loc, Doc: q.Doc, Name: "newcomer"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Obj.ID != id {
		t.Fatalf("inserted object ranks %v first, want %d", res[0].Obj.ID, id)
	}
	// Agreement with the scan oracle over the mutated collection.
	want := settree.ScanTopK(ds.Objects, q)
	for i := range want {
		if res[i].Obj.ID != want[i].Obj.ID {
			t.Fatalf("rank %d: index %d, scan %d", i, res[i].Obj.ID, want[i].Obj.ID)
		}
	}
}

func TestEngineInsertValidation(t *testing.T) {
	e, _ := liveTestEngine(t, 50, 92, Options{})
	if _, err := e.Insert(object.Object{Loc: geo.Point{X: 1, Y: 1}}); err == nil {
		t.Fatal("keywordless object accepted")
	}
	if _, err := e.Insert(object.Object{Loc: geo.Point{X: math.NaN(), Y: 0}, Doc: e.coll.Get(0).Doc}); err == nil {
		t.Fatal("NaN location accepted")
	}
}

func TestEngineRemove(t *testing.T) {
	e, ds := liveTestEngine(t, 300, 93, Options{})
	q := liveQuery(ds, 94)
	res, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	victim := res[0].Obj.ID
	if err := e.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(victim); err == nil {
		t.Fatal("double Remove accepted")
	}
	if err := e.Remove(object.ID(ds.Objects.Len() + 5)); err == nil {
		t.Fatal("out-of-range Remove accepted")
	}
	after, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range after {
		if r.Obj.ID == victim {
			t.Fatalf("removed object %d still in results", victim)
		}
	}
	// A removed object is no longer a valid why-not target.
	if _, err := e.Explain(q, []object.ID{victim}); err == nil {
		t.Fatal("Explain accepted a removed object")
	}
}

func TestRefreshEveryBatchesMutations(t *testing.T) {
	e, ds := liveTestEngine(t, 200, 95, Options{RefreshEvery: 3})
	q := liveQuery(ds, 96)
	before, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}

	id1, err := e.Insert(object.Object{Loc: q.Loc, Doc: q.Doc})
	if err != nil {
		t.Fatal(err)
	}
	if e.PendingMutations() != 1 {
		t.Fatalf("pending %d after 1 mutation, want 1", e.PendingMutations())
	}
	mid, err := e.TopK(q)
	if err != nil {
		t.Fatalf("query with buffered mutation: %v", err)
	}
	if mid[0].Obj.ID == id1 {
		t.Fatal("buffered insert visible before refresh")
	}
	if mid[0].Obj.ID != before[0].Obj.ID {
		t.Fatal("buffered insert disturbed the published snapshot")
	}

	// Forcing publication flushes the buffer.
	e.Refresh()
	if e.PendingMutations() != 0 {
		t.Fatalf("pending %d after Refresh", e.PendingMutations())
	}
	after, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Obj.ID != id1 {
		t.Fatalf("refreshed top result %d, want inserted %d", after[0].Obj.ID, id1)
	}

	// The third mutation auto-refreshes.
	if _, err := e.Insert(object.Object{Loc: q.Loc, Doc: q.Doc}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(object.Object{Loc: q.Loc, Doc: q.Doc}); err != nil {
		t.Fatal(err)
	}
	if e.PendingMutations() != 2 {
		t.Fatalf("pending %d after 2 buffered mutations", e.PendingMutations())
	}
	if _, err := e.Insert(object.Object{Loc: q.Loc, Doc: q.Doc}); err != nil {
		t.Fatal(err)
	}
	if e.PendingMutations() != 0 {
		t.Fatalf("pending %d after auto-refresh threshold", e.PendingMutations())
	}
}

// TestStaleTreeMutationSurfacesAsError: bypassing the engine and
// mutating an index tree directly must turn engine queries into
// ErrStaleSnapshot errors until Refresh.
func TestStaleTreeMutationSurfacesAsError(t *testing.T) {
	e, ds := liveTestEngine(t, 200, 97, Options{})
	q := liveQuery(ds, 98)
	o := ds.Objects.Get(0)
	e.SetIndex().Tree().Delete(o.Rect(), func(item object.Object) bool { return item.ID == o.ID })

	if _, err := e.TopK(q); !errors.Is(err, rtree.ErrStaleSnapshot) {
		t.Fatalf("TopK err = %v, want ErrStaleSnapshot", err)
	}
	if _, err := e.TopKBatch([]score.Query{q}, BatchOptions{}); !errors.Is(err, rtree.ErrStaleSnapshot) {
		t.Fatalf("TopKBatch err = %v, want ErrStaleSnapshot", err)
	}
	e.Refresh()
	if _, err := e.TopK(q); err != nil {
		t.Fatalf("TopK after Refresh: %v", err)
	}
}

// TestConcurrentQueriesDuringMutationStorm is the live-update race test:
// queries, why-not questions, inserts, and removes run concurrently.
// Every query must succeed (zero failed queries) and return a complete,
// consistent result; run under -race this also proves the snapshot swap
// is data-race free.
func TestConcurrentQueriesDuringMutationStorm(t *testing.T) {
	e, ds := liveTestEngine(t, 400, 99, Options{RefreshEvery: 4})
	q := liveQuery(ds, 100)

	const mutations = 150
	var failed atomic.Int64
	var queries atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// On a single-CPU host the mutation loop can finish before any query
	// goroutine is scheduled; make each worker complete one iteration
	// before the storm starts.
	var ready sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		ready.Add(1)
		go func(w int) {
			defer wg.Done()
			var once sync.Once
			markReady := func() { once.Do(ready.Done) }
			defer markReady()
			for {
				select {
				case <-stop:
					return
				default:
				}
				queries.Add(1)
				res, err := e.TopK(q)
				if err != nil {
					failed.Add(1)
					t.Errorf("TopK failed during storm: %v", err)
					return
				}
				if len(res) != q.K {
					failed.Add(1)
					t.Errorf("TopK returned %d results, want %d", len(res), q.K)
					return
				}
				// Results must be sorted: a torn snapshot would scramble
				// the heap order.
				for i := 1; i < len(res); i++ {
					if score.Better(res[i].Score, res[i].Obj.ID, res[i-1].Score, res[i-1].Obj.ID) {
						failed.Add(1)
						t.Errorf("results out of order during storm")
						return
					}
				}
				markReady()
			}
		}(w)
	}
	ready.Wait()

	doc := ds.Objects.Get(0).Doc
	inserted := make([]object.ID, 0, mutations)
	for i := 0; i < mutations; i++ {
		id, err := e.Insert(object.Object{
			Loc: geo.Point{X: q.Loc.X + float64(i%10), Y: q.Loc.Y - float64(i%7)},
			Doc: doc,
		})
		if err != nil {
			t.Errorf("Insert %d: %v", i, err)
			break
		}
		inserted = append(inserted, id)
		if i%3 == 0 {
			if err := e.Remove(inserted[len(inserted)/2]); err != nil {
				// Removing an already-removed midpoint is fine; any other
				// error is not.
				if !alreadyRemoved(err) {
					t.Errorf("Remove: %v", err)
					break
				}
			}
		}
	}
	e.Refresh()
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d concurrent queries failed", failed.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("no queries ran during the storm")
	}
	// Post-storm: the index agrees with the scan oracle.
	res, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	want := settree.ScanTopK(ds.Objects, q)
	for i := range want {
		if res[i].Obj.ID != want[i].Obj.ID {
			t.Fatalf("post-storm rank %d: index %d, scan %d", i, res[i].Obj.ID, want[i].Obj.ID)
		}
	}
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
	coll := cloneCollection(ds.Objects)
	e := NewEngine(coll, Options{MaxEntries: 16, RefreshEvery: 100})
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
		t.Fatalf("top score shrank after constant growth: %v -> %v",
			before[0].Score, after[0].Score)
	}
}

func alreadyRemoved(err error) bool {
	return errors.Is(err, ErrAlreadyRemoved)
}

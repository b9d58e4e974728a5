//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so the
// pooled traversal scratch re-allocates under -race and these exact-zero
// assertions hold only in a plain build.

package core

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/wal"
)

// assertWarmZeroAllocs warms topk with one pass over qs, then fails the
// test unless one more pass into the same reused buffer allocates
// nothing.
func assertWarmZeroAllocs(t *testing.T, qs []score.Query, topk func(score.Query, []score.Result) ([]score.Result, error)) {
	t.Helper()
	var buf []score.Result
	run := func() {
		for _, q := range qs {
			var err error
			if buf, err = topk(q, buf[:0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("warm top-k allocated %v times per %d queries, want 0", allocs, len(qs))
	}
}

// TestTopKAllocationGuard is the allocation gate of the engine's warm
// top-k paths: a result-cache hit, the SetR-tree of a durable engine, and
// the SetR-tree of an engine booted from mmap'd arena files each answer
// into a reused buffer without allocating.
func TestTopKAllocationGuard(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(2000, 61))
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 16, Seed: 62, K: 10, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})

	t.Run("cache-hit", func(t *testing.T) {
		e := NewEngine(ds.Objects, Options{})
		assertWarmZeroAllocs(t, qs, e.TopKAppend)
		if st := e.Stats().Cache; st == nil || st.Hits == 0 || st.Misses > int64(len(qs)) {
			t.Fatalf("the guard did not run on cache hits: %+v", st)
		}
	})

	t.Run("durable", func(t *testing.T) {
		e, err := Open(initialObjects(ds), Options{
			DataDir: t.TempDir(), Vocab: ds.Vocab, Fsync: wal.SyncAlways, RefreshEvery: 1 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, o := range ds.Objects.All()[:20] {
			if _, err := e.Insert(object.Object{Loc: o.Loc, Doc: o.Doc, Name: o.Name}); err != nil {
				t.Fatal(err)
			}
		}
		e.Refresh()
		assertWarmZeroAllocs(t, qs, e.SetIndex().TopKAppend)
	})

	t.Run("mmap", func(t *testing.T) {
		dir := t.TempDir()
		opts := Options{DataDir: dir, Vocab: ds.Vocab, Fsync: wal.SyncNone, MmapArenas: true}
		first, err := Open(initialObjects(ds), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		e, err := Open(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if st := arenaStats(t, e); !st.MmapBoot || !st.RebuildSkipped {
			t.Fatalf("boot did not serve the mapped arenas: %+v", st)
		}
		assertWarmZeroAllocs(t, qs, e.SetIndex().TopKAppend)
	})
}

// prefBytesBudget bounds the heap bytes one warm AdjustPreferenceCtx
// allocates at n = 20k with the result cache off, beyond the Results
// list it returns: about 600 bytes of request bookkeeping (the
// validated missing set, the cache key, the missing lines, the descent
// closures), rounded up to a power of two. The crossing events, tens of
// thousands per request, come from a pool; growing them afresh costs
// 50–400 KB per request.
const prefBytesBudget = 1024

// resultBytes is the size of the backing array of a result list grown
// from nil, to within one element: the caller-owned list a why-not
// refinement returns.
func resultBytes(list []score.Result) uint64 {
	return uint64(cap(list)) * uint64(unsafe.Sizeof(score.Result{}))
}

// leastWarmBytes returns the fewest heap bytes per call that run
// allocates over three trials of ten warm calls. A garbage collection
// between two trials may empty a pool once, which is not what is
// measured.
func leastWarmBytes(run func()) uint64 {
	run()
	best := ^uint64(0)
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for r := 0; r < runs; r++ {
			run()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return best
}

// TestAdjustPreferenceAllocationBudget is the allocation gate of the
// preference sweep: a warm adjustment reuses its pooled crossing
// buffers, so what it allocates beside its Results list stays within
// prefBytesBudget.
func TestAdjustPreferenceAllocationBudget(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(20000, 71))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds.Objects, Options{DisableCache: true})
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 8, Seed: 72, K: 10, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i, q := range qs {
		miss := missingFromResult(e, q, 2)
		var res PreferenceResult
		best := leastWarmBytes(func() {
			var err error
			if res, err = e.AdjustPreferenceCtx(ctx, q, miss, PreferenceOptions{Lambda: 0.3}); err != nil {
				t.Fatal(err)
			}
		})
		if budget := prefBytesBudget + resultBytes(res.Results); best > budget {
			t.Errorf("query %d: warm AdjustPreferenceCtx allocated %d bytes per call, budget %d", i, best, budget)
		}
	}
}

// kwBytesBudget bounds the heap bytes one warm AdaptKeywordsCtx
// allocates at n = 20k with the result cache off, beyond the Results
// list it returns: the most any question of the test measured, rounded
// up to the next multiple of 64. The two ranking lists a candidate
// evaluation fills, up to R(M, q) results each, come from a pool.
const kwBytesBudget = 512

// TestAdaptKeywordsAllocationBudget is the allocation gate of keyword
// adaption: a warm adaption reuses its pooled ranking lists, so what it
// allocates beside its Results list stays within kwBytesBudget.
func TestAdaptKeywordsAllocationBudget(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(20000, 73))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ds.Objects, Options{DisableCache: true})
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 8, Seed: 74, K: 10, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	ctx := context.Background()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i, q := range qs {
		miss := missingFromResult(e, q, 1+i%2)
		var res KeywordResult
		best := leastWarmBytes(func() {
			var err error
			if res, err = e.AdaptKeywordsCtx(ctx, q, miss, KeywordOptions{Lambda: 0.5}); err != nil {
				t.Fatal(err)
			}
		})
		if budget := kwBytesBudget + resultBytes(res.Results); best > budget {
			t.Errorf("query %d: warm AdaptKeywordsCtx allocated %d bytes per call, budget %d", i, best, budget)
		}
	}
}

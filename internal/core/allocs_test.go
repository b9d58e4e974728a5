//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so the
// pooled traversal scratch re-allocates under -race and these exact-zero
// assertions hold only in a plain build.

package core

import (
	"testing"

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

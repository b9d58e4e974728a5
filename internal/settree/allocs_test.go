//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so the
// pooled traversal scratch re-allocates under -race and these exact-zero
// assertions hold only in a plain build.

package settree

import (
	"context"
	"testing"
	"time"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
)

// warmAllocs warms topk's pooled scratch with one pass over qs, then
// returns the allocations of one more pass into the same reused buffer.
func warmAllocs(t *testing.T, qs []score.Query, topk func(score.Query, []score.Result) ([]score.Result, error)) float64 {
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
	return testing.AllocsPerRun(50, run)
}

// TestTopKAllocationGuard is the allocation gate of the SetR-tree's warm
// top-k: once the pooled scratch is warm, TopKAppend into a reused
// buffer allocates nothing — with signatures at k ∈ {3, 10, 50}, without
// them at k ∈ {10, 50}, and through Arena.TopK under a live deadline
// token. The plain TopK path allocates only its result slice.
func TestTopKAllocationGuard(t *testing.T) {
	ds := testDataset(t, 5000, 81)
	on := Build(ds.Objects, rtree.DefaultMaxEntries)
	off := BuildWith(ds.Objects, rtree.DefaultMaxEntries, false)
	for _, c := range []struct {
		name string
		ix   *Index
		k    int
	}{
		{"sig=on/k=3", on, 3}, {"sig=on/k=10", on, 10}, {"sig=on/k=50", on, 50},
		{"sig=off/k=10", off, 10}, {"sig=off/k=50", off, 50},
	} {
		qs := testQueries(ds, 16, 82, c.k, 2)
		if allocs := warmAllocs(t, qs, c.ix.TopKAppend); allocs != 0 {
			t.Errorf("%s: warm TopKAppend allocated %v times per %d queries, want 0", c.name, allocs, len(qs))
		}
	}

	// A served request carries a deadline that never fires; polling its
	// token must not cost an allocation.
	a, err := on.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	cc := index.CancelOf(ctx)
	qs := testQueries(ds, 16, 83, 10, 2)
	withCancel := warmAllocs(t, qs, func(q score.Query, dst []score.Result) ([]score.Result, error) {
		return a.TopK(cc, a.Scorer(q), q.K, nil, dst), nil
	})
	if withCancel != 0 {
		t.Errorf("warm Arena.TopK under a live deadline token allocated %v times per %d queries, want 0", withCancel, len(qs))
	}

	cold := testing.AllocsPerRun(50, func() {
		for _, q := range qs {
			if _, err := on.TopK(q); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(qs))
	if cold > 4 {
		t.Errorf("plain TopK averaged %.2f allocs/query, want ≤ 4", cold)
	}
}

// TestArenaWarmTopKZeroAllocs: the acceptance gate — a warm top-k on
// the mapped file-backed columns must not allocate at all.
func TestArenaWarmTopKZeroAllocs(t *testing.T) {
	ds := testDataset(t, 400, 75)
	qs := testQueries(ds, 16, 76, 10, 2)
	loaded := saveLoadArena(t, Build(ds.Objects, 16), ds, 16)
	if allocs := warmAllocs(t, qs, loaded.TopKAppend); allocs != 0 {
		t.Fatalf("warm TopK on mapped arena allocated %v times per %d queries, want 0", allocs, len(qs))
	}
}

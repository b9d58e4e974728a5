//go:build !race

package rtree

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"github.com/yask-engine/yask/internal/vocab"
)

// TestFreezeAfterInsertCostsThePath extends
// TestFreezeReHashesOnlyTouchedNodes with a work bound on one write at
// n = 20,000 and fanout 64: an insert that does not split merges one
// summary per level, and the freeze after it allocates far less than
// one copy of the entries — it copies the one changed leaf and rebuilds
// only the node-level columns. The allocation bound reads TotalAlloc,
// so the file is excluded under -race, whose instrumentation allocates.
func TestFreezeAfterInsertCostsThePath(t *testing.T) {
	const n, maxE = 20000, 64
	rng := rand.New(rand.NewSource(5))
	s := newUnionSigger()
	tr := New[kwItem, vocab.KeywordSet](s, maxE)
	es := make([]LeafEntry[kwItem], n)
	for i := range es {
		r, it := randomKwItem(rng, i)
		es[i] = LeafEntry[kwItem]{Rect: r, Item: it}
	}
	tr.BulkLoad(es)
	tr.Freeze()

	nodes := tr.NodeCount()
	for tries := 0; ; tries++ {
		if tries == 10000 {
			t.Fatal("no non-full target leaf found")
		}
		r, it := randomKwItem(rng, n)
		if leaf, _ := tr.chooseLeaf(r); len(leaf.entries) < maxE {
			s.mergeCount()
			tr.Insert(r, it)
			break
		}
	}
	if tr.NodeCount() != nodes {
		t.Fatal("insert into a non-full leaf split")
	}
	if merges := s.mergeCount(); merges > tr.Height()+1 {
		t.Fatalf("insert without a split: %d Merge calls, want ≤ %d (height %d)", merges, tr.Height()+1, tr.Height())
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := tr.Freeze()
	runtime.ReadMemStats(&after)
	limit := uint64(n) * uint64(unsafe.Sizeof(LeafEntry[kwItem]{})) / 8
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("freeze after one insert: %d bytes allocated (bound %d), %d nodes", alloc, limit, nodes)
	if alloc >= limit {
		t.Fatalf("freeze after one insert allocated %d bytes, want < %d (n·sizeof(LeafEntry)/8)", alloc, limit)
	}
	checkFrozenSigs(t, "after one insert", f, s)
	if err := f.VerifySummaries(s); err != nil {
		t.Fatal(err)
	}
}

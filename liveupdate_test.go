package yask

import (
	"sync"
	"sync/atomic"
	"testing"
)

func liveTestObjects() []Object {
	return []Object{
		{Name: "alpha", X: 0, Y: 0, Keywords: []string{"coffee", "wifi"}},
		{Name: "beta", X: 1, Y: 0, Keywords: []string{"coffee"}},
		{Name: "gamma", X: 0, Y: 1, Keywords: []string{"tea"}},
		{Name: "delta", X: 5, Y: 5, Keywords: []string{"coffee", "cake"}},
	}
}

func TestEngineInsertAndRemove(t *testing.T) {
	e, err := NewEngine(liveTestObjects())
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 4 || e.LiveLen() != 4 {
		t.Fatalf("Len %d LiveLen %d", e.Len(), e.LiveLen())
	}

	id, err := e.Insert(Object{Name: "epsilon", X: 0.1, Y: 0.1, Keywords: []string{"coffee", "wifi"}})
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("assigned ID %d, want 4", id)
	}
	res, err := e.TopK(Query{X: 0.1, Y: 0.1, Keywords: []string{"coffee", "wifi"}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != id {
		t.Fatalf("top result %d (%s), want inserted %d", res[0].ID, res[0].Name, id)
	}

	// Insert with brand-new vocabulary must work and be queryable.
	id2, err := e.Insert(Object{Name: "zeta", X: 9, Y: 9, Keywords: []string{"karaoke"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.TopK(Query{X: 9, Y: 9, Keywords: []string{"karaoke"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != id2 {
		t.Fatalf("new-keyword query returned %v", res)
	}

	if err := e.Remove(id); err != nil {
		t.Fatal(err)
	}
	if e.LiveLen() != 5 {
		t.Fatalf("LiveLen %d after remove", e.LiveLen())
	}
	res, err = e.TopK(Query{X: 0.1, Y: 0.1, Keywords: []string{"coffee", "wifi"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == id {
			t.Fatalf("removed object %d still returned", id)
		}
	}
	// Objects() lists only live objects; Object() still resolves the ID.
	for _, o := range e.Objects() {
		if o.ID == id {
			t.Fatal("Objects() lists the removed object")
		}
	}
	if _, err := e.Object(id); err != nil {
		t.Fatalf("removed ID no longer addressable: %v", err)
	}

	if _, err := e.Insert(Object{Name: "nokw"}); err == nil {
		t.Fatal("keywordless insert accepted")
	}
	if err := e.Remove(999); err == nil {
		t.Fatal("unknown remove accepted")
	}

	// Rank over a removed object must error, not fabricate a rank.
	if _, err := e.Rank(Query{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 2}, id); err == nil {
		t.Fatal("Rank over a removed object returned a number")
	}
}

// TestRankFollowsPublishedSnapshot: with mutations buffered, Rank
// answers for what the published snapshot holds — an unpublished insert
// is unknown, an object whose removal is still buffered keeps its rank —
// until the refresh publishes both.
func TestRankFollowsPublishedSnapshot(t *testing.T) {
	e, err := NewEngineWith(liveTestObjects(), EngineOptions{RefreshEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 2}
	before, err := e.Rank(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	added, err := e.Insert(Object{Name: "epsilon", X: 0, Y: 0, Keywords: []string{"coffee"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Remove(3); err != nil {
		t.Fatal(err)
	}
	if r, err := e.Rank(q, added); err == nil {
		t.Fatalf("Rank of the unpublished insert = %d, want an error", r)
	}
	if r, err := e.Rank(q, 3); err != nil || r != before {
		t.Fatalf("Rank of the buffered removal = %d, %v; want the published %d", r, err, before)
	}
	e.Refresh()
	if _, err := e.Rank(q, 3); err == nil {
		t.Fatal("Rank of the published removal returned a number")
	}
	if r, err := e.Rank(q, added); err != nil || r != 1 {
		t.Fatalf("Rank of the published insert = %d, %v; want 1", r, err)
	}
}

// TestConcurrentTopKDuringPublicMutations is the acceptance-criteria
// race test at the public API: after Insert, a concurrent TopK returns
// the new object with zero failed queries.
func TestConcurrentTopKDuringPublicMutations(t *testing.T) {
	e, err := NewEngine(liveTestObjects())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 3}

	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.TopK(q); err != nil {
					failed.Add(1)
					t.Errorf("TopK during mutations: %v", err)
					return
				}
			}
		}()
	}
	var lastID ObjectID
	for i := 0; i < 100; i++ {
		id, err := e.Insert(Object{X: float64(i % 10), Y: float64(i % 3), Keywords: []string{"coffee"}})
		if err != nil {
			t.Errorf("Insert: %v", err)
			break
		}
		lastID = id
		if i%4 == 0 {
			if err := e.Remove(id); err != nil {
				t.Errorf("Remove: %v", err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d concurrent queries failed", failed.Load())
	}

	// The last inserted object must be visible; earlier objects at the
	// same location legitimately outrank it via the ID tie-break, so
	// check membership with k = live count.
	res, err := e.TopK(Query{X: float64(99 % 10), Y: float64(99 % 3), Keywords: []string{"coffee"}, K: e.LiveLen()})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.ID == lastID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("last inserted object %d missing from a full result", lastID)
	}
}

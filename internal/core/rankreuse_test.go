package core

import (
	"fmt"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
)

// setAccesses is the engine's cumulative SetR-family node accesses —
// the family every rank computation and the initial top-k traverse.
func setAccesses(e *Engine) int64 {
	var n int64
	for _, row := range e.Stats().PerShard {
		n += row.SetNodeAccesses
	}
	return n
}

// followUp runs one session step and reports how many cache hits and
// SetR-family node accesses it cost.
func followUp(t *testing.T, label string, e *Engine, step func() error) (hits, accesses int64) {
	t.Helper()
	h0, a0 := e.Stats().Cache.Hits, setAccesses(e)
	if err := step(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return e.Stats().Cache.Hits - h0, setAccesses(e) - a0
}

// TestSessionFollowUpsReuseRanks checks that a why-not session ranks
// each missing object once per epoch. The initial query caches its
// top-k; Explain ranks M and reads that top-k back instead of
// traversing; AdjustPreference and AdaptKeywords on the same epoch and
// the same M then find all |M| ranks in the cache (hits +|M|) and run
// no SetR-family traversal at all. A mutation publishes a new epoch,
// after which the ranks are computed afresh.
func TestSessionFollowUpsReuseRanks(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(300, 401))
	if err != nil {
		t.Fatal(err)
	}
	qs := testWorkload(ds, 4, 402)
	sessions := 0
	for _, shards := range []int{1, 3} {
		e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, Shards: shards})
		for qi, wq := range qs {
			q := wq.query(ds.Vocab)
			missing := missingFromResult(e, q, 2)
			if len(missing) < 2 {
				continue
			}
			label := fmt.Sprintf("shards=%d q%d", shards, qi)
			if _, err := e.TopK(q); err != nil {
				t.Fatal(err)
			}

			// Explain: one top-k hit, |M| rank misses that traverse.
			hits, acc := followUp(t, label+"/explain", e, func() error {
				_, err := e.Explain(q, missing)
				return err
			})
			if hits != 1 || acc == 0 {
				t.Fatalf("%s: explain took %d hits, %d accesses; want the cached top-k and fresh ranks", label, hits, acc)
			}
			hits, acc = followUp(t, label+"/preference", e, func() error {
				_, err := e.AdjustPreference(q, missing, PreferenceOptions{Lambda: 0.5})
				return err
			})
			if hits != int64(len(missing)) || acc != 0 {
				t.Fatalf("%s: preference after explain took %d hits, %d SetR accesses; want %d, 0", label, hits, acc, len(missing))
			}
			hits, acc = followUp(t, label+"/keyword", e, func() error {
				_, err := e.AdaptKeywords(q, missing, KeywordOptions{Lambda: 0.5})
				return err
			})
			if hits != int64(len(missing)) || acc != 0 {
				t.Fatalf("%s: keyword after explain took %d hits, %d SetR accesses; want %d, 0", label, hits, acc, len(missing))
			}

			// A publish orphans the cached ranks: the next follow-up ranks
			// again on the new epoch.
			if _, err := e.Insert(object.Object{Loc: ds.Objects.Get(0).Loc, Doc: q.Doc}); err != nil {
				t.Fatal(err)
			}
			missing = missingFromResult(e, q, 2)
			_, acc = followUp(t, label+"/after-publish", e, func() error {
				_, err := e.AdjustPreference(q, missing, PreferenceOptions{Lambda: 0.5})
				return err
			})
			if acc == 0 {
				t.Fatalf("%s: ranks survived a publish", label)
			}
			sessions++
		}
	}
	if sessions == 0 {
		t.Fatal("no query had two missing objects to ask about")
	}
}

// TestExplainServesCachedTopKAndRanks: once the session's initial top-k
// and the missing objects' ranks are cached, Explain traverses nothing
// and returns exactly what a cache-disabled engine computes.
func TestExplainServesCachedTopKAndRanks(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(300, 411))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
	plain := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, DisableCache: true})
	explained := 0
	for qi, wq := range testWorkload(ds, 4, 412) {
		q := wq.query(ds.Vocab)
		missing := missingFromResult(e, q, 2)
		if len(missing) == 0 {
			continue
		}
		if _, err := e.TopK(q); err != nil {
			t.Fatal(err)
		}
		for _, id := range missing {
			if _, err := e.Rank(q, id); err != nil {
				t.Fatal(err)
			}
		}
		var got []Explanation
		hits, acc := followUp(t, fmt.Sprintf("q%d", qi), e, func() error {
			got, err = e.Explain(q, missing)
			return err
		})
		if hits != int64(1+len(missing)) || acc != 0 {
			t.Fatalf("q%d: explain took %d hits, %d SetR accesses; want %d, 0", qi, hits, acc, 1+len(missing))
		}
		want, err := plain.Explain(q, missing)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Rank != want[i].Rank || got[i].KthScore != want[i].KthScore ||
				got[i].Detail != want[i].Detail || got[i].Reason != want[i].Reason {
				t.Fatalf("q%d: cached explanation %+v, uncached %+v", qi, got[i], want[i])
			}
		}
		explained++
	}
	if explained == 0 {
		t.Fatal("no query had a missing object to explain")
	}
}

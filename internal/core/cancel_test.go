package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/qcache"
	"github.com/yask-engine/yask/internal/score"
)

// TestCanceledQueryHygiene is the cancellation property test: a
// canceled or deadline-expired call on any query-surface entry point
// returns ctx.Err() and leaves the engine pristine — the pooled
// scratch state is reusable and the result cache never holds a partial
// answer. Pristineness is proven by running the full equivalence
// check against an untouched cache-disabled twin after the canceled
// probes.
func TestCanceledQueryHygiene(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(150, 301))
	if err != nil {
		t.Fatal(err)
	}
	qs := testWorkload(ds, 3, 302)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()

	e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
	plain := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, DisableCache: true})

	for qi, wq := range qs {
		q := wq.query(ds.Vocab)
		if _, err := e.TopKCtx(canceled, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("q%d: canceled TopK err = %v", qi, err)
		}
		if res, err := e.TopKCtx(expired, q); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("q%d: expired TopK = (%v, %v)", qi, res, err)
		}
		// The append variant must hand back the caller's buffer
		// truncated to its original contents.
		buf := make([]score.Result, 2, 16)
		if got, err := e.TopKAppendCtx(canceled, q, buf); err == nil || len(got) != 2 {
			t.Fatalf("q%d: canceled append = (%d results, %v)", qi, len(got), err)
		}
		if _, err := e.TopKBatchCtx(canceled, []score.Query{q, q}, BatchOptions{Workers: 2}); !errors.Is(err, context.Canceled) {
			t.Fatalf("q%d: canceled batch err = %v", qi, err)
		}

		missing := missingFromResult(plain, q, 2)
		if len(missing) == 0 {
			continue
		}
		probeWhyNot(t, fmt.Sprintf("q%d", qi), e, q, missing, canceled, expired)
	}
	// Every probe so far was canceled, so nothing at all was cached.
	if st := e.Stats(); st.Cache.Entries != 0 {
		t.Fatalf("canceled probes left %d cache entries", st.Cache.Entries)
	}
	// Again with each initial top-k warm in the cache, the state a
	// session's follow-ups meet: the canceled follow-ups still leave
	// no rank behind.
	for qi, wq := range qs {
		q := wq.query(ds.Vocab)
		if _, err := e.TopK(q); err != nil {
			t.Fatal(err)
		}
		if missing := missingFromResult(plain, q, 2); len(missing) > 0 {
			probeWhyNot(t, fmt.Sprintf("q%d/warm", qi), e, q, missing, canceled, expired)
		}
	}

	// After all those aborted traversals, the engine answers the
	// whole query surface byte-identically to the untouched twin —
	// twice, so the second pass also proves no canceled probe left a
	// partial entry behind for the cache to serve.
	assertAnswersMatch(t, "after-cancel/fill", plain, ds.Vocab, e, ds.Vocab, qs)
	assertAnswersMatch(t, "after-cancel/hit", plain, ds.Vocab, e, ds.Vocab, qs)

	if st := e.Stats(); st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatal("equivalence pass never hit the cache")
	}
}

// probeWhyNot calls every rank-taking entry point — Rank, Explain,
// preference adjustment, keyword adaption — under each of the dead
// contexts, expects each to fail with that context's error, and then
// asserts no missing object's rank reached the KindRank cache.
func probeWhyNot(t *testing.T, label string, e *Engine, q score.Query, missing []object.ID, dead ...context.Context) {
	t.Helper()
	for _, ctx := range dead {
		want := ctx.Err()
		if _, err := e.RankCtx(ctx, q, missing[0]); !errors.Is(err, want) {
			t.Fatalf("%s: dead-context Rank err = %v, want %v", label, err, want)
		}
		if _, err := e.ExplainCtx(ctx, q, missing); !errors.Is(err, want) {
			t.Fatalf("%s: dead-context Explain err = %v, want %v", label, err, want)
		}
		if _, err := e.AdjustPreferenceCtx(ctx, q, missing, PreferenceOptions{Lambda: 0.5}); !errors.Is(err, want) {
			t.Fatalf("%s: dead-context AdjustPreference err = %v, want %v", label, err, want)
		}
		if _, err := e.AdaptKeywordsCtx(ctx, q, missing[:1], KeywordOptions{Lambda: 0.5}); !errors.Is(err, want) {
			t.Fatalf("%s: dead-context AdaptKeywords err = %v, want %v", label, err, want)
		}
	}
	sn, err := e.acquireSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range missing {
		if _, ok := e.cache.GetValue(sn.Epoch(), qcache.KindRank, q, []uint64{uint64(id)}); ok {
			t.Fatalf("%s: a canceled call cached the rank of %d", label, id)
		}
	}
}

// TestCancelStormScratchHygiene runs concurrent queries whose contexts
// expire at arbitrary points mid-traversal, interleaved with
// uncancelled queries that must keep returning the exact precomputed
// answers. Under -race this proves a traversal cut short at any node
// still returns its pooled scratch (priority-queue pairs, DFS stacks,
// signature counters) in a reusable state — the uncancelled
// goroutines are drawing from the same pools the whole time.
func TestCancelStormScratchHygiene(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(200, 311))
	if err != nil {
		t.Fatal(err)
	}
	qs := testWorkload(ds, 4, 312)
	// Cache disabled: every query must traverse, so every iteration
	// exercises the scratch pools rather than the cache fast path.
	e := NewEngine(cloneCollection(ds.Objects), Options{DisableCache: true})

	queries := make([]score.Query, len(qs))
	want := make([][]score.Result, len(qs))
	for i, wq := range qs {
		queries[i] = wq.query(ds.Vocab)
		res, err := e.TopK(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const (
		goroutines = 8
		iters      = 200
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(313 + g)))
			for it := 0; it < iters; it++ {
				qi := rng.Intn(len(queries))
				if it%2 == 0 {
					// Deadline somewhere between "already expired" and
					// "comfortably past the query": both completed and
					// canceled outcomes occur across the storm, and a
					// completed answer must still be exact.
					d := time.Duration(rng.Intn(200)) * time.Microsecond
					ctx, cancel := context.WithTimeout(context.Background(), d)
					res, err := e.TopKCtx(ctx, queries[qi])
					cancel()
					switch {
					case err == nil:
						assertSameResults(t, fmt.Sprintf("g%d it%d q%d (completed-in-time)", g, it, qi), res, want[qi])
					case errors.Is(err, context.DeadlineExceeded):
						if len(res) != 0 {
							t.Errorf("g%d it%d: canceled query returned %d results", g, it, len(res))
							return
						}
					default:
						t.Errorf("g%d it%d: unexpected error %v", g, it, err)
						return
					}
					continue
				}
				res, err := e.TopK(queries[qi])
				if err != nil {
					t.Errorf("g%d it%d: %v", g, it, err)
					return
				}
				assertSameResults(t, fmt.Sprintf("g%d it%d q%d (no-cancel)", g, it, qi), res, want[qi])
			}
		}()
	}
	wg.Wait()
}

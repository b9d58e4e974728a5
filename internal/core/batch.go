package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/qcache"
	"github.com/yask-engine/yask/internal/score"
)

// BatchOptions configures the concurrent batch executors.
type BatchOptions struct {
	// Workers bounds the worker pool; zero or negative means
	// GOMAXPROCS. The pool never exceeds the number of jobs.
	Workers int
}

func (o BatchOptions) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunBatch fans jobs 0..n-1 across a bounded worker pool and blocks
// until all complete. workers is clamped like BatchOptions.Workers
// (≤ 0 means GOMAXPROCS; never more than n). Workers pull the next job
// index from a shared atomic counter, so job costs balance without a
// channel per job; per-query traversal scratch comes from the indexes'
// sync.Pools, giving each worker its own warm state. job must be safe
// to call concurrently and must only touch index i of any shared
// output.
func RunBatch(n, workers int, job func(i int)) {
	RunBatchCtx(context.Background(), n, workers, job)
}

// RunBatchCtx is RunBatch under a context: once ctx is done, workers
// stop pulling new job indices and the pool drains after the jobs
// already in flight return (jobs that traverse an index observe the
// same cancellation through their own tokens, so in-flight work also
// stops within a bounded number of node visits). Jobs skipped after
// the trip simply never run — the caller decides what a partially
// executed batch means, normally by returning ctx.Err() wholesale.
func RunBatchCtx(ctx context.Context, n, workers int, job func(i int)) {
	if n == 0 {
		return
	}
	cc := index.CancelOf(ctx)
	workers = BatchOptions{Workers: workers}.workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cc.Canceled() {
				return
			}
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if cc.Canceled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}

// TopKBatch answers many top-k queries concurrently over a bounded
// worker pool and returns one result slice per query, index-aligned
// with qs. Every query is validated before any work starts; the first
// invalid query fails the whole batch.
//
// Before any index work, every query is resolved against the result
// cache, and the remaining misses are deduplicated: identical queries
// in one batch (the canonical key makes "identical" mean semantically
// identical) hit the index exactly once, with followers receiving their
// own copy of the leader's answer.
func (e *Engine) TopKBatch(qs []score.Query, opts BatchOptions) ([][]score.Result, error) {
	return e.TopKBatchCtx(context.Background(), qs, opts)
}

// TopKBatchCtx is TopKBatch under a context: one cancellation token is
// shared by every work unit of the batch, so an expired deadline stops
// all in-flight traversals within a bounded number of node visits and
// keeps queued units from starting. A canceled batch returns ctx.Err()
// wholesale and stores nothing in the result cache.
func (e *Engine) TopKBatchCtx(ctx context.Context, qs []score.Query, opts BatchOptions) ([][]score.Result, error) {
	for i := range qs {
		if err := qs[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
	}
	// One checked snapshot serves the whole batch: every query in it
	// sees the same consistent arena set even with mutations in flight.
	sn, err := e.acquireSet()
	if err != nil {
		return nil, err
	}
	epoch := sn.Epoch()
	out := make([][]score.Result, len(qs))

	// Resolve-and-dedupe: each query becomes a cache hit, the leader of
	// its equality class, or a follower of an earlier leader.
	const resolved = -1          // answered from cache
	const leader = -2            // computes its own answer
	role := make([]int, len(qs)) // resolved, leader, or the leader's index
	leaders := make([]int, 0, len(qs))
	byHash := make(map[uint64][]int)
	for i := range qs {
		if res, ok := e.cache.GetTopK(epoch, qs[i], nil); ok {
			out[i] = res
			role[i] = resolved
			continue
		}
		h := qcache.HashQuery(qs[i])
		role[i] = leader
		for _, j := range byHash[h] {
			if qcache.EqualQueries(qs[i], qs[j]) {
				role[i] = j
				break
			}
		}
		if role[i] == leader {
			byHash[h] = append(byHash[h], i)
			leaders = append(leaders, i)
		}
	}

	if len(leaders) > 0 {
		RunBatchCtx(ctx, len(leaders), opts.Workers, func(li int) {
			i := leaders[li]
			out[i], _ = e.topKOn(ctx, sn, qs[i], nil)
		})
	}
	if err := ctx.Err(); err != nil {
		// Some units never ran and the ones that did were cut short: the
		// whole batch is undefined, so no per-query answers survive.
		return nil, err
	}

	// Followers get their own copy of the leader's answer, so every
	// returned slice is independently caller-owned.
	for i, r := range role {
		if r >= 0 {
			out[i] = append([]score.Result(nil), out[r]...)
		}
	}
	return out, nil
}

// KeywordJob is one keyword-adaption why-not question of a batch.
type KeywordJob struct {
	Query   score.Query
	Missing []object.ID
}

// AdaptKeywordsBatch answers many keyword-adaption why-not questions
// concurrently. Results and errors are index-aligned with jobs; a job
// that fails (for example because a missing object is already in the
// top-k) reports its error without failing the rest of the batch.
func (e *Engine) AdaptKeywordsBatch(jobs []KeywordJob, kopts KeywordOptions, bopts BatchOptions) ([]KeywordResult, []error) {
	return e.AdaptKeywordsBatchCtx(context.Background(), jobs, kopts, bopts)
}

// AdaptKeywordsBatchCtx is AdaptKeywordsBatch under a context. Jobs cut
// short or skipped by cancellation report ctx.Err() in their error
// slot.
func (e *Engine) AdaptKeywordsBatchCtx(ctx context.Context, jobs []KeywordJob, kopts KeywordOptions, bopts BatchOptions) ([]KeywordResult, []error) {
	results := make([]KeywordResult, len(jobs))
	errs := make([]error, len(jobs))
	RunBatchCtx(ctx, len(jobs), bopts.Workers, func(i int) {
		results[i], errs[i] = e.AdaptKeywordsCtx(ctx, jobs[i].Query, jobs[i].Missing, kopts)
	})
	if err := ctx.Err(); err != nil {
		for i := range errs {
			if errs[i] == nil && results[i].Refined.K == 0 {
				errs[i] = err // the job never ran
			}
		}
	}
	return results, errs
}

package core

import (
	"runtime"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
)

func batchTestEngine(t *testing.T, n int) (*Engine, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.DefaultConfig(n, 99))
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(ds.Objects, Options{}), ds
}

func batchTestQueries(ds *dataset.Dataset, n, k int) []score.Query {
	return dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: n, Seed: 7, K: k, Keywords: 2,
		W: score.DefaultWeights, FromObjectDocs: true,
	})
}

// TestTopKBatchMatchesSequential checks that the concurrent executor
// returns exactly the results of sequential TopK calls, for several
// worker counts (including more workers than queries).
func TestTopKBatchMatchesSequential(t *testing.T) {
	e, ds := batchTestEngine(t, 3000)
	qs := batchTestQueries(ds, 40, 5)

	want := make([][]score.Result, len(qs))
	for i, q := range qs {
		res, err := e.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, workers := range []int{0, 1, 4, 64} {
		got, err := e.TopKBatch(qs, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d result sets, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("workers=%d query %d: %d results, want %d", workers, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j].Obj.ID != want[i][j].Obj.ID || got[i][j].Score != want[i][j].Score {
					t.Fatalf("workers=%d query %d rank %d: got (%d, %v), want (%d, %v)",
						workers, i, j, got[i][j].Obj.ID, got[i][j].Score, want[i][j].Obj.ID, want[i][j].Score)
				}
			}
		}
	}
}

// TestTopKBatchValidation checks that one invalid query fails the whole
// batch up front.
func TestTopKBatchValidation(t *testing.T) {
	e, ds := batchTestEngine(t, 500)
	qs := batchTestQueries(ds, 4, 5)
	qs[2].K = 0
	if _, err := e.TopKBatch(qs, BatchOptions{}); err == nil {
		t.Fatal("batch with an invalid query did not fail")
	}
	if res, err := e.TopKBatch(nil, BatchOptions{}); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
}

// TestAdaptKeywordsBatchMatchesSequential checks that the batch keyword
// adapter returns per-job results identical to sequential calls, with
// per-job errors isolated.
func TestAdaptKeywordsBatchMatchesSequential(t *testing.T) {
	e, ds := batchTestEngine(t, 2000)
	qs := batchTestQueries(ds, 8, 3)
	kopts := KeywordOptions{Lambda: 0.5}

	jobs := make([]KeywordJob, 0, len(qs))
	for _, q := range qs {
		// Missing object: the one ranked just outside the top-k.
		ext := q
		ext.K = q.K + 1
		res, err := e.TopK(ext)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) <= q.K {
			continue
		}
		jobs = append(jobs, KeywordJob{Query: q, Missing: []object.ID{res[q.K].Obj.ID}})
	}
	if len(jobs) < 2 {
		t.Skip("not enough valid why-not jobs")
	}
	// One poisoned job: its "missing" object is the top-1 result, which
	// is not a valid why-not question and must error in isolation.
	top, err := e.TopK(jobs[0].Query)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := len(jobs)
	jobs = append(jobs, KeywordJob{Query: jobs[0].Query, Missing: []object.ID{top[0].Obj.ID}})

	want := make([]KeywordResult, len(jobs))
	wantErr := make([]bool, len(jobs))
	for i, j := range jobs {
		res, err := e.AdaptKeywords(j.Query, j.Missing, kopts)
		want[i], wantErr[i] = res, err != nil
	}
	if !wantErr[poisoned] {
		t.Fatal("poisoned job unexpectedly valid")
	}

	got, errs := e.AdaptKeywordsBatch(jobs, kopts, BatchOptions{Workers: 4})
	for i := range jobs {
		if (errs[i] != nil) != wantErr[i] {
			t.Fatalf("job %d: err=%v, want error=%v", i, errs[i], wantErr[i])
		}
		if errs[i] != nil {
			continue
		}
		if !got[i].Refined.Doc.Equal(want[i].Refined.Doc) ||
			got[i].Refined.K != want[i].Refined.K ||
			got[i].Penalty != want[i].Penalty {
			t.Fatalf("job %d: batch result %+v != sequential %+v", i, got[i], want[i])
		}
	}
}

// TestBatchWorkersBound checks the worker-count clamp. Every Workers
// value ≤ 0 means GOMAXPROCS, so those expectations derive from the
// host's core count.
func TestBatchWorkersBound(t *testing.T) {
	cases := []struct{ workers, jobs, want int }{
		{0, 100, 1}, // GOMAXPROCS on the test machine is at least 1
		{8, 3, 3},
		{-5, 2, min(runtime.GOMAXPROCS(0), 2)},
		{2, 0, 1},
	}
	for _, c := range cases {
		got := BatchOptions{Workers: c.workers}.workers(c.jobs)
		if c.workers == 0 {
			if got < 1 || got > c.jobs && c.jobs > 0 {
				t.Fatalf("workers(%d jobs) with default = %d", c.jobs, got)
			}
			continue
		}
		if got != c.want {
			t.Fatalf("BatchOptions{%d}.workers(%d) = %d, want %d", c.workers, c.jobs, got, c.want)
		}
	}
}

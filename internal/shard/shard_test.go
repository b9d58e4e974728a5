package shard

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/kcrtree"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/settree"
)

func testDataset(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testQueries(ds *dataset.Dataset, n int, seed int64, k, kw int) []score.Query {
	return dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: n, Seed: seed, K: k, Keywords: kw,
		W: score.DefaultWeights, FromObjectDocs: true,
	})
}

func TestGridDims(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 6: {2, 3}, 7: {1, 7}, 12: {3, 4}}
	for s, want := range cases {
		gx, gy := gridDims(s)
		if gx*gy != s || gx != want[0] || gy != want[1] {
			t.Errorf("gridDims(%d) = %d×%d, want %d×%d", s, gx, gy, want[0], want[1])
		}
	}
}

// TestMapPartition checks the partition invariants: every global ID
// lives in exactly one shard, local IDs are dense and ascend with
// global IDs, and the home table inverts the per-shard tables.
func TestMapPartition(t *testing.T) {
	ds := testDataset(t, 500, 1)
	for _, shards := range []int{1, 2, 4, 7} {
		m := NewMap(ds.Objects, shards)
		seen := 0
		for tIdx := 0; tIdx < m.Shards(); tIdx++ {
			p := m.Part(tIdx)
			globals := p.Globals()
			if p.Collection().Len() != len(globals) {
				t.Fatalf("shards=%d: shard %d has %d objects but %d global entries",
					shards, tIdx, p.Collection().Len(), len(globals))
			}
			for local, gid := range globals {
				seen++
				if local > 0 && globals[local-1] >= gid {
					t.Fatalf("shards=%d: shard %d global IDs not ascending at local %d", shards, tIdx, local)
				}
				ht, hl, ok := m.Home(gid)
				if !ok || ht != tIdx || int(hl) != local {
					t.Fatalf("shards=%d: Home(%d) = (%d,%d,%v), want (%d,%d)", shards, gid, ht, hl, ok, tIdx, local)
				}
				lo := p.Collection().Get(object.ID(local))
				go_ := ds.Objects.Get(gid)
				if lo.Loc != go_.Loc || !lo.Doc.Equal(go_.Doc) {
					t.Fatalf("shards=%d: shard %d local %d does not match global %d", shards, tIdx, local, gid)
				}
			}
		}
		if seen != ds.Objects.Len() {
			t.Fatalf("shards=%d: partition covers %d of %d objects", shards, seen, ds.Objects.Len())
		}
	}
}

// TestMapAppendRouting: appends route deterministically, keep local↔
// global order aligned, and tombstones propagate to the home shard.
func TestMapAppendRouting(t *testing.T) {
	ds := testDataset(t, 200, 2)
	m := NewMap(ds.Objects, 4)
	rng := rand.New(rand.NewSource(3))
	space := ds.Objects.Space()
	for i := 0; i < 100; i++ {
		o := object.Object{
			Loc: ds.Objects.Get(object.ID(rng.Intn(200))).Loc,
			Doc: ds.Objects.Get(object.ID(rng.Intn(200))).Doc,
		}
		// Every third insert lands outside the frozen grid space.
		if i%3 == 0 {
			o.Loc.X = space.Max.X + float64(i)
		}
		gid, tIdx, local := m.Append(o)
		ht, hl, ok := m.Home(gid)
		if !ok || ht != tIdx || hl != local.ID {
			t.Fatalf("Home(%d) inconsistent after append", gid)
		}
		globals := m.Part(tIdx).Globals()
		if globals[local.ID] != gid {
			t.Fatalf("append %d: globals[%d] = %d", gid, local.ID, globals[local.ID])
		}
	}
	// Tombstone a mix of seed and appended objects.
	for _, gid := range []object.ID{0, 42, 199, 210, 250} {
		tIdx, local, ok := m.Tombstone(gid)
		if !ok {
			t.Fatalf("Tombstone(%d) missed", gid)
		}
		if m.Global().Alive(gid) || m.Part(tIdx).Collection().Alive(local.ID) {
			t.Fatalf("Tombstone(%d) left object alive", gid)
		}
	}
	if _, _, ok := m.Tombstone(42); ok {
		t.Fatal("double tombstone succeeded")
	}
}

// TestViewTopKEquivalence: scatter-gather top-k over any shard count is
// byte-identical (IDs and scores) to a single index over the whole
// collection, for both families.
func TestViewTopKEquivalence(t *testing.T) {
	ds := testDataset(t, 800, 4)
	qs := testQueries(ds, 12, 5, 10, 2)
	// Both families — the conformance proof that sharding is genuinely
	// family-generic.
	builders := map[string]index.Builder{
		"settree": settree.Builder(16),
		"kcrtree": kcrtree.Builder(16),
	}
	for name, build := range builders {
		single := build(ds.Objects)
		sn, err := single.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 5, 8} {
			fa := NewFamily(NewMap(ds.Objects, shards), build)
			v, err := fa.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range qs {
				for _, k := range []int{1, 3, 10, 50} {
					s := score.Scorer{Query: q, MaxDist: ds.Objects.MaxDist()}
					want := sn.TopK(index.NoCancel, s, k, nil, nil)
					got := v.TopK(index.NoCancel, s, k, nil, nil)
					if len(got) != len(want) {
						t.Fatalf("%s shards=%d q%d k=%d: %d results, want %d", name, shards, qi, k, len(got), len(want))
					}
					for i := range want {
						if got[i].Obj.ID != want[i].Obj.ID || got[i].Score != want[i].Score {
							t.Fatalf("%s shards=%d q%d k=%d rank %d: got (%d, %v), want (%d, %v)",
								name, shards, qi, k, i, got[i].Obj.ID, got[i].Score, want[i].Obj.ID, want[i].Score)
						}
					}
				}
			}
		}
	}
}

// TestViewRankEquivalence: global strict-dominance counts and rank
// bounds decompose exactly across shards.
func TestViewRankEquivalence(t *testing.T) {
	ds := testDataset(t, 600, 6)
	qs := testQueries(ds, 8, 7, 5, 2)
	builders := map[string]index.Builder{
		"settree": settree.Builder(16),
		"kcrtree": kcrtree.Builder(16),
	}
	for name, build := range builders {
		single := build(ds.Objects)
		sn, err := single.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		for _, shards := range []int{2, 4, 7} {
			fa := NewFamily(NewMap(ds.Objects, shards), build)
			v, err := fa.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				s := score.Scorer{Query: q, MaxDist: ds.Objects.MaxDist()}
				for i := 0; i < 10; i++ {
					oid := object.ID(rng.Intn(ds.Objects.Len()))
					o := ds.Objects.Get(oid)
					if got, want := index.RankOf(index.NoCancel, v, s, o), index.RankOf(index.NoCancel, sn, s, o); got != want {
						t.Fatalf("%s shards=%d: rank of %d = %d, want %d", name, shards, oid, got, want)
					}
					if got, want := index.RankOf(index.NoCancel, v, s, o), settree.ScanRank(ds.Objects, s, oid); got != want {
						t.Fatalf("%s shards=%d: rank of %d = %d, scan says %d", name, shards, oid, got, want)
					}
					// Sharded bounds must bracket the exact global count.
					ref := s.Score(o)
					exact := sn.CountBetter(index.NoCancel, s, ref, oid)
					for _, depth := range []int{0, 1, 2, 100} {
						lo, hi := v.RankBounds(index.NoCancel, s, ref, oid, depth)
						if lo > exact || hi < exact {
							t.Fatalf("%s shards=%d depth=%d: bounds [%d,%d] exclude %d", name, shards, depth, lo, hi, exact)
						}
					}
				}
			}
		}
	}
}

// TestViewForEachCrossEquivalence: the union of per-shard crossing
// reports equals the single-index report — every object is either
// visited (with its global ID) or covered by a wholesale-above count,
// exactly once.
func TestViewForEachCrossEquivalence(t *testing.T) {
	ds := testDataset(t, 500, 9)
	q := testQueries(ds, 1, 10, 5, 2)[0]
	s := score.Scorer{Query: q, MaxDist: ds.Objects.MaxDist()}
	build := kcrtree.Builder(16)
	single := build(ds.Objects)
	sn, err := single.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Objects.Get(object.ID(123))
	spatial, textual := s.Components(m)
	m0, m1 := spatial, textual

	count := func(sn index.Snapshot) (visited map[object.ID]bool, above int) {
		visited = map[object.ID]bool{}
		sn.ForEachCross(index.NoCancel, s, m0, m1, func(o object.Object) {
			if visited[o.ID] {
				t.Fatalf("object %d visited twice", o.ID)
			}
			visited[o.ID] = true
		}, func(n int) { above += n })
		return visited, above
	}
	wantVisited, wantAbove := count(sn)
	for _, shards := range []int{2, 4} {
		fa := NewFamily(NewMap(ds.Objects, shards), build)
		v, err := fa.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		gotVisited, gotAbove := count(v)
		// Tree shapes differ, so the visit/wholesale split may differ;
		// the total coverage and the classification of each object must
		// not: every object is in exactly one bucket, and an object
		// visited by both reports carries the same (global) ID.
		if len(gotVisited)+gotAbove != len(wantVisited)+wantAbove {
			t.Fatalf("shards=%d: coverage %d+%d, want %d+%d",
				shards, len(gotVisited), gotAbove, len(wantVisited), wantAbove)
		}
		for id := range gotVisited {
			if int(id) >= ds.Objects.Len() {
				t.Fatalf("shards=%d: visited non-global ID %d", shards, id)
			}
		}
	}
}

// TestGroupMutationStorm is the -race exercise of the sharded path:
// concurrent scatter-gather queries against a Group under an
// insert/remove/refresh storm, with zero failed acquisitions.
func TestGroupMutationStorm(t *testing.T) {
	ds := testDataset(t, 400, 11)
	g := NewGroup(ds.Objects, 4, nil, []index.Builder{settree.Builder(16), kcrtree.Builder(16)})
	qs := testQueries(ds, 8, 12, 5, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[i%len(qs)]
				v, err := g.Family(0).Acquire()
				if err != nil {
					t.Errorf("worker %d: acquire: %v", w, err)
					return
				}
				s := v.Scorer(q)
				res := v.TopK(index.NoCancel, s, q.K, nil, nil)
				for j := 1; j < len(res); j++ {
					if score.Better(res[j].Score, res[j].Obj.ID, res[j-1].Score, res[j-1].Obj.ID) {
						t.Errorf("worker %d: results out of order", w)
						return
					}
				}
				kv, err := g.Family(1).Acquire()
				if err != nil {
					t.Errorf("worker %d: kc acquire: %v", w, err)
					return
				}
				if len(res) > 0 {
					_ = kv.CountBetter(index.NoCancel, s, res[0].Score, res[0].Obj.ID)
				}
				_ = rng
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(13))
	inserted := []object.ID{}
	for i := 0; i < 300; i++ {
		switch {
		case i%3 != 0 || len(inserted) == 0:
			o := ds.Objects.Get(object.ID(rng.Intn(400)))
			gid := g.Insert(object.Object{Loc: o.Loc, Doc: o.Doc, Name: "storm"})
			inserted = append(inserted, gid)
		default:
			j := rng.Intn(len(inserted))
			g.Remove(inserted[j])
			inserted = append(inserted[:j], inserted[j+1:]...)
		}
		if i%7 == 0 {
			g.Refresh()
		}
	}
	g.Refresh()
	close(stop)
	wg.Wait()
}

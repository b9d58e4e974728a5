package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// TestCacheEquivalenceAcrossMutationsAndPublish is the cache's core
// property test: an engine with the result cache enabled must answer
// the whole query surface (top-k, ranks, preference and keyword
// refinements) byte-identically to a cache-disabled twin at every step
// of a mutation script and across refreshes. Every check runs twice,
// so the second pass reads answers the first pass cached; the final
// stats assert the cache really was exercised (hits) and really was
// invalidated (orphaned epochs).
func TestCacheEquivalenceAcrossMutationsAndPublish(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(150, 201))
	if err != nil {
		t.Fatal(err)
	}
	qs := testWorkload(ds, 3, 202)
	muts := mutationScript(ds, 20, 203)

	cached := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
	plain := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, DisableCache: true})
	check := func(ctx string) {
		t.Helper()
		// Twice: the first pass fills the cache, the second serves
		// from it — both must match the uncached engine exactly.
		assertAnswersMatch(t, ctx+"/fill", plain, ds.Vocab, cached, ds.Vocab, qs)
		assertAnswersMatch(t, ctx+"/hit", plain, ds.Vocab, cached, ds.Vocab, qs)
	}
	check("initial")
	for i, m := range muts {
		m.apply(t, cached, ds.Vocab)
		m.apply(t, plain, ds.Vocab)
		if i%5 == 4 {
			check(fmt.Sprintf("mut=%d", i))
		}
	}
	cached.Refresh()
	plain.Refresh()
	check("refresh")

	st := cached.Stats()
	if st.Cache == nil {
		t.Fatal("no cache stats on a cache-enabled engine")
	}
	if st.Cache.Hits == 0 {
		t.Fatal("equivalence ran without a single cache hit")
	}
	if st.Cache.OrphanedEpochs == 0 {
		t.Fatalf("mutations published %d epochs but no entries were ever orphaned", len(muts))
	}
	if pst := plain.Stats(); pst.Cache != nil {
		t.Fatalf("DisableCache engine reports cache stats %+v", pst.Cache)
	}
}

// TestCacheEquivalenceAcrossRecovery extends the equivalence across a
// crash-recovery reopen: answers cached before the crash must never
// leak into the recovered engine (its snapshot carries a fresh epoch),
// and the recovered engine's own cache must again serve answers
// identical to an uncached reference that executed the same script.
func TestCacheEquivalenceAcrossRecovery(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(120, 211))
	if err != nil {
		t.Fatal(err)
	}
	qs := testWorkload(ds, 3, 212)
	muts := mutationScript(ds, 12, 213)

	ref := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, DisableCache: true})

	dir := t.TempDir()
	e, err := Open(initialObjects(ds), Options{
		MaxEntries: 16, DataDir: dir, Vocab: ds.Vocab,
		Fsync: wal.SyncAlways, WALSegmentSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		m.apply(t, e, ds.Vocab)
		m.apply(t, ref, ds.Vocab)
	}
	// Prime the pre-crash cache, then crash (close without checkpoint
	// beyond what Close writes; the WAL carries the script either way).
	assertAnswersMatch(t, "pre-crash/fill", ref, ds.Vocab, e, ds.Vocab, qs)
	assertAnswersMatch(t, "pre-crash/hit", ref, ds.Vocab, e, ds.Vocab, qs)
	if st := e.Stats(); st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatal("pre-crash cache never hit")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	recV := vocab.NewVocabulary()
	rec, err := Open(nil, Options{MaxEntries: 16, DataDir: dir, Vocab: recV})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	assertAnswersMatch(t, "post-recovery/fill", ref, ds.Vocab, rec, recV, qs)
	assertAnswersMatch(t, "post-recovery/hit", ref, ds.Vocab, rec, recV, qs)
	if st := rec.Stats(); st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatal("post-recovery cache never hit")
	}
}

// subTestObjects builds a tiny hand-placed collection: a cluster of
// "cafe bar" objects around the origin and one far-away "hotel pool"
// outlier that fixes maxDist, so later far-away inserts cannot move the
// normalization constant and force re-evaluations for that reason.
func subTestObjects(v *vocab.Vocabulary) []object.Object {
	mk := func(id int, x, y float64, words ...string) object.Object {
		return object.Object{
			ID: object.ID(id), Loc: geo.Point{X: x, Y: y},
			Doc: v.InternSet(words...), Name: fmt.Sprintf("o%d", id),
		}
	}
	return []object.Object{
		mk(0, 0, 0, "cafe", "bar"),
		mk(1, 1, 0, "cafe", "bar"),
		mk(2, 0, 1, "cafe", "wifi"),
		mk(3, 1, 1, "bar", "wifi"),
		mk(4, 100, 100, "hotel", "pool"),
		mk(5, 99, 100, "hotel", "spa"),
	}
}

// TestSubscriptionSkipAndUpdate pins the two deterministic halves of
// the continuous-query prefilter: a far-away, keyword-disjoint insert
// is provably irrelevant to a subscribed query (skipped, no update
// pushed), while a matching insert next to the query location must
// re-evaluate and push the changed result.
func TestSubscriptionSkipAndUpdate(t *testing.T) {
	v := vocab.NewVocabulary()
	e := NewEngine(object.NewCollection(subTestObjects(v)), Options{MaxEntries: 4})
	q := score.Query{
		Loc: geo.Point{X: 0.2, Y: 0.2}, Doc: v.InternSet("cafe", "bar"),
		K: 2, W: score.DefaultWeights,
	}
	sub, err := e.Subscribe(q, SubscribeOptions{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	initial := <-sub.Updates()
	if len(initial.Results) != 2 {
		t.Fatalf("initial update has %d results, want 2", len(initial.Results))
	}

	// Prime the epoch chain: the first window after a Subscribe always
	// re-evaluates (the manager cannot yet prove the delta covers the
	// gap back to the subscription's own snapshot).
	if _, err := e.Insert(object.Object{
		Loc: geo.Point{X: 99, Y: 98}, Doc: v.InternSet("hotel", "gym"), Name: "prime",
	}); err != nil {
		t.Fatal(err)
	}
	e.subs.WaitIdle()

	// Irrelevant insert: far from the query, signature-disjoint
	// keywords, inside the existing maxDist envelope. The prefilter must
	// skip the re-evaluation and push nothing.
	if _, err := e.Insert(object.Object{
		Loc: geo.Point{X: 98, Y: 99}, Doc: v.InternSet("hotel", "gym"), Name: "far",
	}); err != nil {
		t.Fatal(err)
	}
	e.subs.WaitIdle()
	st := e.subs.stats()
	if st.SigSkipped != 1 {
		t.Fatalf("irrelevant insert: sigSkipped = %d, want 1 (reevaluated %d)", st.SigSkipped, st.Reevaluated)
	}
	select {
	case u := <-sub.Updates():
		t.Fatalf("irrelevant insert pushed an update: %+v", u)
	default:
	}

	// Relevant insert: matching keywords right at the query location
	// must take over rank 1 and arrive as a pushed update.
	id, err := e.Insert(object.Object{
		Loc: geo.Point{X: 0.2, Y: 0.2}, Doc: v.InternSet("cafe", "bar"), Name: "new",
	})
	if err != nil {
		t.Fatal(err)
	}
	e.subs.WaitIdle()
	select {
	case u := <-sub.Updates():
		if len(u.Results) != 2 || u.Results[0].Obj.ID != id {
			t.Fatalf("update after relevant insert = %+v, want %d first", u.Results, id)
		}
		if u.Epoch <= initial.Epoch {
			t.Fatalf("update epoch %d did not advance past initial %d", u.Epoch, initial.Epoch)
		}
	default:
		t.Fatal("relevant insert pushed no update")
	}

	// Removing the new winner must push again; the prefilter may never
	// skip a removal that sits in the subscribed result.
	if err := e.Remove(id); err != nil {
		t.Fatal(err)
	}
	e.subs.WaitIdle()
	select {
	case u := <-sub.Updates():
		if len(u.Results) != 2 || u.Results[0].Obj.ID == id {
			t.Fatalf("update after removal still lists %d: %+v", id, u.Results)
		}
	default:
		t.Fatal("removal of a result member pushed no update")
	}

	if st := e.subs.stats(); st.Active != 1 || st.Pushed < 2 {
		t.Fatalf("stats = %+v, want 1 active and ≥ 2 pushed", st)
	}
}

// TestSubscriptionMatchesPolling is the subscription equivalence
// property: across a random mutation script, the newest pushed update
// of every subscription equals what polling TopK returns at the end —
// whether the prefilter skipped or re-evaluated along the way.
func TestSubscriptionMatchesPolling(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(150, 301))
	if err != nil {
		t.Fatal(err)
	}
	muts := mutationScript(ds, 25, 302)
	qs := testWorkload(ds, 4, 303)

	e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
	subs := make([]*Subscription, len(qs))
	latest := make([][]score.Result, len(qs))
	for i, wq := range qs {
		sub, err := e.Subscribe(wq.query(ds.Vocab), SubscribeOptions{Buffer: len(muts) + 2})
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		defer sub.Close()
		subs[i] = sub
	}
	for _, m := range muts {
		m.apply(t, e, ds.Vocab)
	}
	e.subs.WaitIdle()
	for i, sub := range subs {
		for {
			select {
			case u, ok := <-sub.Updates():
				if !ok {
					t.Fatalf("subscription %d dropped (buffer sized for the script)", i)
				}
				latest[i] = u.Results
				continue
			default:
			}
			break
		}
		want, err := e.TopK(qs[i].query(ds.Vocab))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("sub=%d", i), latest[i], want)
	}
	st := e.subs.stats()
	if st.Reevaluated == 0 || st.Pushed == 0 {
		t.Fatalf("script drove no subscription work: %+v", st)
	}
}

// TestSubscriptionSlowClientDisconnect: a subscriber that never reads
// is force-dropped once it falls a full buffer behind — its channel
// closes instead of the engine stalling or leaking queued updates.
func TestSubscriptionSlowClientDisconnect(t *testing.T) {
	v := vocab.NewVocabulary()
	e := NewEngine(object.NewCollection(subTestObjects(v)), Options{MaxEntries: 4})
	q := score.Query{
		Loc: geo.Point{X: 0, Y: 0}, Doc: v.InternSet("cafe", "bar"),
		K: 2, W: score.DefaultWeights,
	}
	sub, err := e.Subscribe(q, SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Never read. Every insert at the query location changes rank 1, so
	// each publish wants to push; the initial update already fills the
	// one-slot buffer, so the first changed result forces the drop.
	for i := 0; i < 5; i++ {
		if _, err := e.Insert(object.Object{
			Loc: geo.Point{X: 0, Y: 0}, Doc: v.InternSet("cafe", "bar"),
			Name: fmt.Sprintf("n%d", i),
		}); err != nil {
			t.Fatal(err)
		}
		e.subs.WaitIdle()
	}
	// The initial update drains, then the channel must report closed.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Updates():
			if !ok {
				if st := e.subs.stats(); st.Dropped != 1 || st.Active != 0 {
					t.Fatalf("stats after drop = %+v, want 1 dropped / 0 active", st)
				}
				return
			}
		case <-deadline:
			t.Fatal("slow subscriber was never disconnected")
		}
	}
}

// TestCacheAndSubscriptionStorm races queries, batch queries,
// mutations, refreshes, and subscription churn against each
// other; the -race tier-1 lane proves the cache and subscription
// manager are data-race free, and every returned result is checked for
// internal consistency (k-bounded, descending scores).
func TestCacheAndSubscriptionStorm(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(200, 401))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 16, Seed: 402, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	muts := mutationScript(ds, 64, 403)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	checkDescending := func(rs []score.Result) {
		for i := 1; i < len(rs); i++ {
			if rs[i].Score > rs[i-1].Score {
				t.Errorf("results out of order: %v then %v", rs[i-1].Score, rs[i].Score)
				return
			}
		}
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := qs[(w+i)%len(qs)]
				if res, err := e.TopK(q); err != nil {
					t.Error(err)
				} else if len(res) > q.K {
					t.Errorf("TopK returned %d > k=%d", len(res), q.K)
				} else {
					checkDescending(res)
				}
				if i%7 == 0 {
					if _, err := e.TopKBatch(qs[:4], BatchOptions{Workers: 2}); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := e.Subscribe(qs[i%len(qs)], SubscribeOptions{Buffer: 2})
			if err != nil {
				t.Error(err)
				return
			}
			<-sub.Updates()
			sub.Close()
		}
	}()
	for i, m := range muts {
		if m.remove {
			// The script may target an ID another iteration removed;
			// apply inserts strictly, tolerate remove races.
			_ = e.Remove(m.id)
		} else {
			m.apply(t, e, ds.Vocab)
		}
		if i%16 == 15 {
			e.Refresh()
		}
	}
	close(stop)
	wg.Wait()
	if st := e.Stats(); st.Cache == nil {
		t.Fatal("no cache stats after storm")
	}
}

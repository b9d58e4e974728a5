package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// wordQuery is a vocabulary-independent query spec: recovery re-interns
// keywords into a fresh vocabulary, so cross-engine comparisons must
// carry words, not keyword IDs.
type wordQuery struct {
	loc   geo.Point
	words []string
	k     int
}

func (wq wordQuery) query(v *vocab.Vocabulary) score.Query {
	return score.Query{Loc: wq.loc, Doc: v.InternSet(wq.words...), K: wq.k, W: score.DefaultWeights}
}

// mutation is one step of a deterministic mutation script.
type mutation struct {
	remove bool
	id     object.ID // remove target
	loc    geo.Point
	words  []string
	name   string
}

// mutationScript derives n mutations from the dataset: inserts reusing
// existing docs (spelled as words) and removes of previously inserted
// or seed IDs. The script is pure data, so it can be applied to any
// engine over any vocabulary.
func mutationScript(ds *dataset.Dataset, n int, seed int64) []mutation {
	rng := rand.New(rand.NewSource(seed))
	space := ds.Objects.Space()
	muts := make([]mutation, 0, n)
	nextID := ds.Objects.Len()
	var ids []object.ID
	for i := 0; i < ds.Objects.Len(); i++ {
		ids = append(ids, object.ID(i))
	}
	removed := map[object.ID]bool{}
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			// Remove a random still-live ID.
			for tries := 0; tries < 50; tries++ {
				id := ids[rng.Intn(len(ids))]
				if !removed[id] {
					removed[id] = true
					muts = append(muts, mutation{remove: true, id: id})
					break
				}
			}
			continue
		}
		src := ds.Objects.Get(object.ID(rng.Intn(ds.Objects.Len())))
		m := mutation{
			loc:   src.Loc,
			words: ds.Vocab.Words(src.Doc),
			name:  fmt.Sprintf("mut-%d", i),
		}
		if i%9 == 5 {
			m.loc.X = space.Max.X + rng.Float64() // out-of-space growth
		}
		muts = append(muts, m)
		ids = append(ids, object.ID(nextID))
		nextID++
	}
	return muts
}

// apply runs one mutation against an engine whose docs are interned in
// v. Returns the insert's assigned ID (or the removed ID).
func (m mutation) apply(t *testing.T, e *Engine, v *vocab.Vocabulary) object.ID {
	t.Helper()
	if m.remove {
		if err := e.Remove(m.id); err != nil {
			t.Fatalf("remove %d: %v", m.id, err)
		}
		return m.id
	}
	id, err := e.Insert(object.Object{Loc: m.loc, Doc: v.InternSet(m.words...), Name: m.name})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return id
}

// assertAnswersMatch drives the full query surface of both engines —
// each with its own vocabulary — and fails on any divergence. Keyword
// sets are compared as sorted word lists, everything else (IDs, scores,
// ranks, penalties) must be byte-identical: scores are set-cardinality
// based and tie-breaks use object IDs, so vocabulary relabeling must
// never change an answer.
func assertAnswersMatch(t *testing.T, ctx string, ref *Engine, refV *vocab.Vocabulary, got *Engine, gotV *vocab.Vocabulary, qs []wordQuery) {
	t.Helper()
	if ref.Collection().Len() != got.Collection().Len() || ref.Collection().LiveLen() != got.Collection().LiveLen() {
		t.Fatalf("%s: collection %d/%d live, want %d/%d live", ctx,
			got.Collection().Len(), got.Collection().LiveLen(),
			ref.Collection().Len(), ref.Collection().LiveLen())
	}
	for qi, wq := range qs {
		refQ, gotQ := wq.query(refV), wq.query(gotV)
		for _, k := range []int{1, 5, 20} {
			rq, gq := refQ, gotQ
			rq.K, gq.K = k, k
			want, err1 := ref.TopK(rq)
			have, err2 := got.TopK(gq)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s q%d k=%d: errs %v / %v", ctx, qi, k, err1, err2)
			}
			if len(have) != len(want) {
				t.Fatalf("%s q%d k=%d: %d results, want %d", ctx, qi, k, len(have), len(want))
			}
			for i := range want {
				if have[i].Obj.ID != want[i].Obj.ID || have[i].Score != want[i].Score {
					t.Fatalf("%s q%d k=%d rank %d: got (%d, %v), want (%d, %v)",
						ctx, qi, k, i, have[i].Obj.ID, have[i].Score, want[i].Obj.ID, want[i].Score)
				}
			}
		}

		missing := missingFromResult(ref, refQ, 2)
		if len(missing) == 0 {
			continue
		}
		// Explain first: on a cache-enabled engine it leaves the ranks
		// the rank, preference and keyword checks below then reuse.
		wantE, err1 := ref.Explain(refQ, missing)
		gotE, err2 := got.Explain(gotQ, missing)
		if err1 != nil || err2 != nil || len(gotE) != len(wantE) {
			t.Fatalf("%s q%d: explain = %d (%v), want %d (%v)", ctx, qi, len(gotE), err2, len(wantE), err1)
		}
		for i, w := range wantE {
			g := gotE[i]
			// Documents hold vocabulary-specific keyword IDs; compare the
			// object by ID and every analysed number.
			g.Missing, w.Missing = object.Object{ID: g.Missing.ID}, object.Object{ID: w.Missing.ID}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s q%d: explanation %d diverges:\n got %+v\nwant %+v", ctx, qi, i, g, w)
			}
		}
		for _, id := range missing {
			w, err1 := ref.Rank(refQ, id)
			g, err2 := got.Rank(gotQ, id)
			if err1 != nil || err2 != nil || g != w {
				t.Fatalf("%s q%d: rank(%d) = %d (%v), want %d (%v)", ctx, qi, id, g, err2, w, err1)
			}
		}

		wantP, err1 := ref.AdjustPreference(refQ, missing, PreferenceOptions{Lambda: 0.5})
		gotP, err2 := got.AdjustPreference(gotQ, missing, PreferenceOptions{Lambda: 0.5})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: preference errs %v / %v", ctx, qi, err1, err2)
		}
		if gotP.Refined.W != wantP.Refined.W || gotP.Refined.K != wantP.Refined.K ||
			gotP.Penalty != wantP.Penalty || gotP.RankAfter != wantP.RankAfter {
			t.Fatalf("%s q%d: preference diverges:\n got %+v\nwant %+v", ctx, qi, gotP, wantP)
		}

		wantK, err1 := ref.AdaptKeywords(refQ, missing[:1], KeywordOptions{Lambda: 0.5})
		gotK, err2 := got.AdaptKeywords(gotQ, missing[:1], KeywordOptions{Lambda: 0.5})
		if err1 != nil || err2 != nil {
			t.Fatalf("%s q%d: keyword errs %v / %v", ctx, qi, err1, err2)
		}
		refWords := strings.Join(refV.Words(wantK.Refined.Doc), " ")
		gotWords := strings.Join(gotV.Words(gotK.Refined.Doc), " ")
		if gotWords != refWords || gotK.Refined.K != wantK.Refined.K ||
			gotK.Penalty != wantK.Penalty || gotK.DeltaK != wantK.DeltaK ||
			gotK.DeltaDoc != wantK.DeltaDoc || gotK.RankAfter != wantK.RankAfter {
			t.Fatalf("%s q%d: keyword diverges:\n got %q %+v\nwant %q %+v",
				ctx, qi, gotWords, gotK, refWords, wantK)
		}
	}
}

// initialObjects clones the dataset's objects for seeding a durable
// engine.
func initialObjects(ds *dataset.Dataset) []object.Object {
	objs := make([]object.Object, ds.Objects.Len())
	copy(objs, ds.Objects.All())
	return objs
}

func testWorkload(ds *dataset.Dataset, n int, seed int64) []wordQuery {
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: n, Seed: seed, K: 5, Keywords: 2, W: score.DefaultWeights, FromObjectDocs: true,
	})
	out := make([]wordQuery, len(qs))
	for i, q := range qs {
		out[i] = wordQuery{loc: q.Loc, words: ds.Vocab.Words(q.Doc), k: q.K}
	}
	return out
}

// TestDurableEngineLifecycle: boot from a dataset, mutate, restart —
// state and answers survive; counters reflect the WAL and checkpoints.
func TestDurableEngineLifecycle(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(150, 71))
	if err != nil {
		t.Fatal(err)
	}
	qs := testWorkload(ds, 3, 72)
	dir := t.TempDir()
	muts := mutationScript(ds, 30, 73)

	// Reference: memory-only engine over the same script.
	ref := NewEngine(object.NewCollection(initialObjects(ds)), Options{MaxEntries: 16})

	e, err := Open(initialObjects(ds), Options{
		MaxEntries: 16, DataDir: dir, Vocab: ds.Vocab, Fsync: wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st := e.Stats()
	if st.Durability == nil || st.Durability.Fsync != "always" {
		t.Fatalf("fresh durable engine stats: %+v", st.Durability)
	}
	if st.Durability.LastCheckpoint != 0 || st.Durability.ReplayedRecords != 0 {
		t.Fatalf("first boot counters: %+v", st.Durability)
	}
	for _, m := range muts {
		m.apply(t, e, ds.Vocab)
		m.apply(t, ref, ds.Vocab)
	}
	st = e.Stats()
	if st.Durability.WalAppends != int64(len(muts)) || st.Durability.LastLSN != uint64(len(muts)) {
		t.Fatalf("after %d mutations: %+v", len(muts), st.Durability)
	}
	if st.Durability.WalFsyncs < int64(len(muts)) {
		t.Fatalf("SyncAlways fsynced %d times for %d mutations", st.Durability.WalFsyncs, len(muts))
	}
	assertAnswersMatch(t, "live", ref, ds.Vocab, e, ds.Vocab, qs)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := e.Insert(object.Object{Doc: ds.Vocab.InternSet("x"), Loc: geo.Point{}}); !errors.Is(err, errEngineClosed) {
		t.Fatalf("insert after close: %v", err)
	}
	if err := e.Remove(0); !errors.Is(err, errEngineClosed) {
		t.Fatalf("remove after close: %v", err)
	}

	// Restart with a fresh vocabulary: the WAL suffix replays on top of
	// the boot checkpoint and every answer matches the never-crashed
	// reference.
	v2 := vocab.NewVocabulary()
	e2, err := Open(nil, Options{MaxEntries: 16, DataDir: dir, Vocab: v2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	st = e2.Stats()
	if st.Durability.ReplayedRecords != len(muts) {
		t.Fatalf("replayed %d records, want %d", st.Durability.ReplayedRecords, len(muts))
	}
	assertAnswersMatch(t, "recovered", ref, ds.Vocab, e2, v2, qs)

	// The recovered engine keeps accepting mutations at the right IDs.
	extra := mutation{loc: geo.Point{X: 1, Y: 2}, words: []string{"coffee", "late"}, name: "extra"}
	if id1, id2 := extra.apply(t, ref, ds.Vocab), extra.apply(t, e2, v2); id1 != id2 {
		t.Fatalf("post-recovery insert: ID %d, want %d", id2, id1)
	}
	assertAnswersMatch(t, "recovered+mutated", ref, ds.Vocab, e2, v2, qs)
}

// TestCheckpointRetiresWAL: automatic checkpoints bound the log — old
// segments are deleted, reboots replay only the post-checkpoint suffix,
// and old checkpoint files are pruned.
func TestCheckpointRetiresWAL(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(80, 81))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := Open(initialObjects(ds), Options{
		MaxEntries: 16, DataDir: dir, Vocab: ds.Vocab,
		CheckpointEvery: 10, WALSegmentSize: 512,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	muts := mutationScript(ds, 35, 82)
	for _, m := range muts {
		m.apply(t, e, ds.Vocab)
	}
	st := e.Stats().Durability
	if st.Checkpoints < 3 {
		t.Fatalf("CheckpointEvery=10 over 35 mutations wrote %d checkpoints", st.Checkpoints)
	}
	if st.LastCheckpoint != 30 {
		t.Fatalf("last checkpoint at LSN %d, want 30", st.LastCheckpoint)
	}
	if st.SinceCheckpoint != 5 {
		t.Fatalf("sinceCheckpoint = %d, want 5", st.SinceCheckpoint)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Only the post-checkpoint suffix replays on reboot.
	v2 := vocab.NewVocabulary()
	e2, err := Open(nil, Options{MaxEntries: 16, DataDir: dir, Vocab: v2})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := e2.Stats().Durability.ReplayedRecords; got != 5 {
		t.Fatalf("replayed %d records, want 5", got)
	}
	e2.Close()

	// KeepCheckpoints bounds the checkpoint files on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".ckpt") {
			ckpts++
		}
	}
	if ckpts > wal.KeepCheckpoints {
		t.Fatalf("%d checkpoint files on disk, want <= %d", ckpts, wal.KeepCheckpoints)
	}
}

// TestCheckpointOnMemoryEngine: Checkpoint is a typed error without a
// data directory; Close is a no-op.
func TestCheckpointOnMemoryEngine(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(30, 91))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cloneCollection(ds.Objects), Options{})
	if err := e.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on memory engine: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close on memory engine: %v", err)
	}
}

// copyDataDir clones a data directory so a crash prefix can be carved
// out without touching the original.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// truncateWALToPrefix carves dir's WAL down to its first p records:
// segments wholly beyond the boundary are deleted, the segment holding
// it is truncated at the record boundary — byte-exactly what a power
// cut right after the p-th acknowledgement leaves behind.
func truncateWALToPrefix(t *testing.T, dir string, p int) {
	t.Helper()
	infos, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, info := range infos {
		if seen >= p {
			if err := os.Remove(info.Path); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if seen+len(info.Records) <= p {
			seen += len(info.Records)
			continue
		}
		cut := info.Records[p-seen].Offset
		if err := os.Truncate(info.Path, cut); err != nil {
			t.Fatal(err)
		}
		seen = p
	}
}

// TestRecoveryEquivalenceAtEveryRecordBoundary is the tentpole property
// test: for a random mutation script, a crash after ANY acknowledged
// record — exercised for the single-index backend, the sharded backend,
// and the mmap-arena boot path (which replays the WAL suffix by thawing
// the mapped indexes) — recovers an engine whose whole query surface
// (top-k IDs and scores, ranks, preference and keyword refinements) is
// byte-identical to a never-crashed engine that executed exactly that
// prefix. Recovery uses a fresh vocabulary each time, so the
// equivalence also proves keyword relabeling invariance.
func TestRecoveryEquivalenceAtEveryRecordBoundary(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(120, 101))
	if err != nil {
		t.Fatal(err)
	}
	qs := testWorkload(ds, 2, 102)
	const nMut = 24
	muts := mutationScript(ds, nMut, 103)

	configs := []struct {
		shards int
		mmap   bool
	}{
		{shards: 1, mmap: false},
		{shards: 3, mmap: false},
		{shards: 1, mmap: true},
		// mmap on a sharded engine must transparently fall back to the
		// rebuild path with the same answers.
		{shards: 3, mmap: true},
	}
	for _, cfg := range configs {
		// One full run writes the WAL all prefixes are carved from.
		master := t.TempDir()
		e, err := Open(initialObjects(ds), Options{
			MaxEntries: 16, Shards: cfg.shards, DataDir: master, Vocab: ds.Vocab,
			Fsync: wal.SyncAlways, WALSegmentSize: 1024, MmapArenas: cfg.mmap,
		})
		if err != nil {
			t.Fatalf("shards=%d: Open: %v", cfg.shards, err)
		}
		for _, m := range muts {
			m.apply(t, e, ds.Vocab)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		// Reference engine advances prefix by prefix alongside the crash
		// points; always unsharded — shard-count invariance of recovery
		// falls out of comparing the sharded recoveries against it.
		//
		// The rebuild path re-interns keywords in checkpoint-row order, so
		// its reference uses a fresh vocabulary (proving relabeling
		// invariance). The mmap boot instead pins the recovering
		// vocabulary to the arena's embedded layout — the writing engine's
		// own — so it is byte-identical to the ORIGINAL labeling,
		// including refinement tie-breaks that order by keyword ID; its
		// reference shares the master vocabulary.
		refV := vocab.NewVocabulary()
		refObjs := reinternedObjects(ds, refV)
		if cfg.mmap && cfg.shards == 1 {
			refV = ds.Vocab
			refObjs = initialObjects(ds)
		}
		ref := NewEngine(object.NewCollection(refObjs), Options{MaxEntries: 16})

		for p := 0; p <= nMut; p++ {
			if p > 0 {
				muts[p-1].apply(t, ref, refV)
			}
			crashed := copyDataDir(t, master)
			truncateWALToPrefix(t, crashed, p)
			recV := vocab.NewVocabulary()
			rec, err := Open(nil, Options{
				MaxEntries: 16, Shards: cfg.shards, DataDir: crashed, Vocab: recV,
				MmapArenas: cfg.mmap,
			})
			if err != nil {
				t.Fatalf("shards=%d prefix %d: recovery: %v", cfg.shards, p, err)
			}
			if got := rec.Stats().Durability.ReplayedRecords; got != p {
				t.Fatalf("shards=%d prefix %d: replayed %d records", cfg.shards, p, got)
			}
			if cfg.mmap && cfg.shards == 1 {
				st := rec.Stats().Durability.Arena
				if st == nil || !st.MmapBoot {
					t.Fatalf("mmap prefix %d: boot did not map the arenas: %+v", p, st)
				}
				if skipped := st.RebuildSkipped; skipped != (p == 0) {
					t.Fatalf("mmap prefix %d: rebuildSkipped = %v", p, skipped)
				}
			}
			ctx := fmt.Sprintf("shards=%d/mmap=%v/prefix=%d", cfg.shards, cfg.mmap, p)
			assertAnswersMatch(t, ctx, ref, refV, rec, recV, qs)
			rec.Close()
		}
	}
}

// reinternedObjects clones the dataset's objects with docs re-interned
// into v, so a reference engine can share a vocabulary with its query
// translations.
func reinternedObjects(ds *dataset.Dataset, v *vocab.Vocabulary) []object.Object {
	objs := make([]object.Object, ds.Objects.Len())
	for i, o := range ds.Objects.All() {
		objs[i] = object.Object{
			ID: o.ID, Loc: o.Loc, Doc: v.InternSet(ds.Vocab.Words(o.Doc)...), Name: o.Name,
		}
	}
	return objs
}

// TestRecoveryRefusesCorruptDir: interior WAL damage and unreadable
// checkpoints refuse to boot with a typed error — never a silently
// wrong engine.
func TestRecoveryRefusesCorruptDir(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(60, 111))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := Open(initialObjects(ds), Options{MaxEntries: 16, DataDir: dir, Vocab: ds.Vocab})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mutationScript(ds, 12, 112) {
		m.apply(t, e, ds.Vocab)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	t.Run("wal-bit-flip", func(t *testing.T) {
		crashed := copyDataDir(t, dir)
		infos, err := wal.Segments(crashed)
		if err != nil || len(infos) == 0 || len(infos[0].Records) < 2 {
			t.Fatalf("bad segment layout: %v", err)
		}
		// Flip a payload byte of the FIRST record — interior damage.
		first := infos[0].Records[0]
		f, err := os.OpenFile(infos[0].Path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := []byte{0}
		if _, err := f.ReadAt(b, first.Offset+10); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x20
		if _, err := f.WriteAt(b, first.Offset+10); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := Open(nil, Options{DataDir: crashed, Vocab: vocab.NewVocabulary()}); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("bit-flipped WAL booted: %v", err)
		}
	})

	t.Run("all-checkpoints-damaged", func(t *testing.T) {
		crashed := copyDataDir(t, dir)
		entries, err := os.ReadDir(crashed)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if strings.HasSuffix(ent.Name(), ".ckpt") {
				path := filepath.Join(crashed, ent.Name())
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := Open(nil, Options{DataDir: crashed, Vocab: vocab.NewVocabulary()}); !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("damaged checkpoints booted: %v", err)
		}
	})
}

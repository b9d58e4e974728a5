package settree

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/wal"
)

// saveLoadArena round-trips ix through a file in dir and loads it back
// over the same collection.
func saveLoadArena(t *testing.T, ix *Index, ds *dataset.Dataset, maxE int) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "arena-set-0000000000000007.yar")
	if err := rtree.WriteArenaFile(path, ix.SaveArena(7, ds.Vocab.All())); err != nil {
		t.Fatal(err)
	}
	raw, err := rtree.OpenArena(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArena(raw, ds.Objects, maxE)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// assertSameAnswers compares the full top-k surface of two indexes.
func assertSameAnswers(t *testing.T, ctx string, want, got *Index, qs []score.Query) {
	t.Helper()
	for qi, q := range qs {
		wr, err := want.TopK(q)
		if err != nil {
			t.Fatalf("%s q%d: reference TopK: %v", ctx, qi, err)
		}
		gr, err := got.TopK(q)
		if err != nil {
			t.Fatalf("%s q%d: loaded TopK: %v", ctx, qi, err)
		}
		if len(wr) != len(gr) {
			t.Fatalf("%s q%d: %d results, want %d", ctx, qi, len(gr), len(wr))
		}
		for i := range wr {
			if wr[i].Obj.ID != gr[i].Obj.ID || wr[i].Score != gr[i].Score {
				t.Fatalf("%s q%d rank %d: got (%d, %v), want (%d, %v)",
					ctx, qi, i, gr[i].Obj.ID, gr[i].Score, wr[i].Obj.ID, wr[i].Score)
			}
		}
		s := score.NewScorer(q, want.Collection())
		for _, r := range wr {
			wrank, err := want.RankOf(s, r.Obj.ID)
			if err != nil {
				t.Fatal(err)
			}
			grank, err := got.RankOf(s, r.Obj.ID)
			if err != nil {
				t.Fatal(err)
			}
			if wrank != grank {
				t.Fatalf("%s q%d: RankOf(%d) = %d, want %d", ctx, qi, r.Obj.ID, grank, wrank)
			}
		}
	}
}

// TestArenaRoundTripQueries: an index loaded from its arena file serves
// the identical query surface, with and without signatures, without
// ever building a tree.
func TestArenaRoundTripQueries(t *testing.T) {
	ds := testDataset(t, 300, 71)
	qs := testQueries(ds, 8, 72, 5, 2)
	for _, sigs := range []bool{true, false} {
		ix := BuildWith(ds.Objects, 16, sigs)
		loaded := saveLoadArena(t, ix, ds, 16)
		if !loaded.Mapped() {
			t.Fatal("loaded index is not serving the mapped arena")
		}
		if loaded.Signatures() != sigs {
			t.Fatalf("signatures = %v, want %v", loaded.Signatures(), sigs)
		}
		if loaded.Tree() != nil {
			t.Fatal("mapped index should have no tree before the first mutation")
		}
		assertSameAnswers(t, fmt.Sprintf("sigs=%v", sigs), ix, loaded, qs)
	}
}

// TestArenaThawOnMutation: the first managed mutation on a mapped index
// transparently rebuilds a live tree; answers stay identical before the
// refresh and reflect the mutation after it.
func TestArenaThawOnMutation(t *testing.T) {
	ds := testDataset(t, 200, 73)
	q := testQueries(ds, 1, 74, 5, 2)[0]
	ix := Build(ds.Objects, 16)
	loaded := saveLoadArena(t, ix, ds, 16)

	before, err := loaded.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	winner := object.Object{ID: object.ID(ds.Objects.Len()), Loc: q.Loc, Doc: q.Doc}
	loaded.Insert(winner)
	if loaded.Mapped() {
		t.Fatal("index still reports mapped after a managed mutation")
	}
	mid, err := loaded.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != len(before) || mid[0].Obj.ID != before[0].Obj.ID {
		t.Fatal("pending insert leaked into the published snapshot")
	}
	loaded.Refresh()
	after, err := loaded.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if after[0].Obj.ID != winner.ID {
		t.Fatalf("rank 1 after refresh = %d, want the inserted winner %d", after[0].Obj.ID, winner.ID)
	}
	if tr := loaded.Tree(); tr == nil || tr.Len() != ds.Objects.Len()+1 {
		t.Fatal("thawed tree missing or wrong size")
	}
}

// TestArenaFaultEveryByteFamily extends the rtree-level exhaustive
// fault test through the settree codec: a bit flip at EVERY byte of the
// file either surfaces wal.ErrCorrupt or leaves the query surface
// byte-identical. A fault can never produce a different answer.
func TestArenaFaultEveryByteFamily(t *testing.T) {
	ds := testDataset(t, 60, 77)
	qs := testQueries(ds, 2, 78, 5, 2)
	ix := Build(ds.Objects, 8)
	path := filepath.Join(t.TempDir(), "arena-set-0000000000000003.yar")
	if err := rtree.WriteArenaFile(path, ix.SaveArena(3, ds.Vocab.All())); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for off := range pristine {
		mutated := append([]byte(nil), pristine...)
		mutated[off] ^= 1 << (off % 8)
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("bit flip at byte %d", off)
		raw, err := rtree.OpenArena(path)
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("%s: error %v is not wal.ErrCorrupt", ctx, err)
			}
			continue
		}
		loaded, err := LoadArena(raw, ds.Objects, 8)
		if err != nil {
			raw.Close()
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("%s: decode error %v is not wal.ErrCorrupt", ctx, err)
			}
			continue
		}
		assertSameAnswers(t, ctx, ix, loaded, qs)
	}
}

package settree

import (
	"testing"

	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
)

// TestArenaCarriesSignatures: freezing a SetR-tree materializes the
// signature columns, sized to the node and entry counts.
func TestArenaCarriesSignatures(t *testing.T) {
	ds := testDataset(t, 500, 91)
	ix := Build(ds.Objects, 16)
	f := ix.Flat()
	if !f.HasSigs() {
		t.Fatal("frozen SetR arena has no signature columns")
	}
	if got, want := len(f.EntrySigs()), f.Len(); got != want {
		t.Fatalf("entry signature column has %d rows, want %d", got, want)
	}
	// Spot-check the signature semantics at every node: the node sig
	// must cover the signature of its augmentation union, and every
	// entry sig must equal its document's signature.
	for n := int32(0); n < int32(f.NumNodes()); n++ {
		want := f.Aug(n).Union.Signature()
		if *f.Sig(n) != want {
			t.Fatalf("node %d signature does not match its union", n)
		}
	}
	entries := f.AllEntries()
	sigs := f.EntrySigs()
	for i := range entries {
		if sigs[i] != entries[i].Item.Doc.Signature() {
			t.Fatalf("entry %d signature does not match its document", i)
		}
	}
}

// TestDisabledIndexSkipsColumns: an index built with signatures off
// never materializes the signature columns — the off switch saves the
// freeze cost and memory, not just the query-time probes — and
// re-enabling them takes effect at the next refresh.
func TestDisabledIndexSkipsColumns(t *testing.T) {
	ds := testDataset(t, 300, 93)
	ix := BuildWith(ds.Objects, 16, false)
	if ix.Flat().HasSigs() {
		t.Fatal("disabled index materialized signature columns at build")
	}
	ix.Refresh()
	if ix.Flat().HasSigs() {
		t.Fatal("disabled index materialized signature columns at refresh")
	}
	if res, err := ix.TopK(testQueries(ds, 1, 94, 5, 2)[0]); err != nil || len(res) == 0 {
		t.Fatalf("column-free index cannot query: %d results, err %v", len(res), err)
	}
	ix.SetSignatures(true)
	ix.Refresh()
	if !ix.Flat().HasSigs() {
		t.Fatal("re-enabled index did not rebuild signature columns at refresh")
	}
}

// TestSignatureQuickBoundSound is the node-level soundness property:
// at every node of a real arena, the constant-time signature bound the
// traversals prune with is never below the exact merge-walk bound (and
// hence never below the true similarity of any object in the subtree),
// for both similarity models.
func TestSignatureQuickBoundSound(t *testing.T) {
	ds := testDataset(t, 800, 17)
	ix := Build(ds.Objects, 16)
	f := ix.Flat()
	for _, sim := range []score.TextSim{score.SimJaccard, score.SimDice} {
		for qi, q := range testQueries(ds, 12, 55, 5, 2) {
			q.Sim = sim
			qs := vocab.NewQuerySig(q.Doc)
			for n := int32(0); n < int32(f.NumNodes()); n++ {
				a := f.Aug(n)
				exact := TSimUpperBound(*a, q.Doc, sim)
				if qs.Disjoint(f.Sig(n)) {
					if exact != 0 {
						t.Fatalf("sim=%v q%d node %d: disjoint signature but exact bound %v", sim, qi, n, exact)
					}
					continue
				}
				m := qs.IntersectBound(f.Sig(n))
				quick := score.SigSimUpperBound(sim, m, int(a.MinLen), int(a.MaxLen), len(a.Inter), qs.Len)
				if quick < exact {
					t.Fatalf("sim=%v q%d node %d: quick bound %v < exact bound %v", sim, qi, n, quick, exact)
				}
			}
		}
	}
}

// TestSignatureTopKEquivalence: with and without the signature layer,
// top-k answers are byte-identical (IDs and scores) across k values and
// both similarity models.
func TestSignatureTopKEquivalence(t *testing.T) {
	ds := testDataset(t, 900, 23)
	on := Build(ds.Objects, 16)
	off := Build(ds.Objects, 16)
	off.SetSignatures(false)
	if !on.Signatures() || off.Signatures() {
		t.Fatal("signature toggles not wired")
	}
	for _, sim := range []score.TextSim{score.SimJaccard, score.SimDice} {
		for _, k := range []int{1, 5, 20, 75} {
			for qi, q := range testQueries(ds, 10, 77, k, 2) {
				q.Sim = sim
				want, err1 := off.TopK(q)
				got, err2 := on.TopK(q)
				if err1 != nil || err2 != nil {
					t.Fatalf("sim=%v k=%d q%d: errs %v / %v", sim, k, qi, err1, err2)
				}
				if len(got) != len(want) {
					t.Fatalf("sim=%v k=%d q%d: %d results vs %d", sim, k, qi, len(got), len(want))
				}
				for i := range want {
					if got[i].Obj.ID != want[i].Obj.ID || got[i].Score != want[i].Score {
						t.Fatalf("sim=%v k=%d q%d rank %d: (%d, %v) vs (%d, %v)",
							sim, k, qi, i, got[i].Obj.ID, got[i].Score, want[i].Obj.ID, want[i].Score)
					}
				}
			}
		}
	}
}

// TestSignatureTraversalEquivalence: the rank primitive and the
// preference sweep's event construction make byte-identical decisions
// with the signature layer on and off.
func TestSignatureTraversalEquivalence(t *testing.T) {
	ds := testDataset(t, 700, 29)
	on := Build(ds.Objects, 16)
	off := Build(ds.Objects, 16)
	off.SetSignatures(false)
	aOn, err := on.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	aOff, err := off.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range testQueries(ds, 10, 33, 5, 2) {
		s := aOn.Scorer(q)
		for _, refID := range []object.ID{3, 250, 600} {
			ref := ds.Objects.Get(refID)
			refScore := s.Score(ref)
			if got, want := aOn.CountBetter(index.NoCancel, s, refScore, refID), aOff.CountBetter(index.NoCancel, s, refScore, refID); got != want {
				t.Fatalf("q%d ref %d: CountBetter %d vs %d", qi, refID, got, want)
			}
		}
		// ForEachCross must visit the same object set either way.
		m0, m1 := 0.9, 0.4
		collect := func(a *Arena) map[object.ID]bool {
			seen := make(map[object.ID]bool)
			a.ForEachCross(index.NoCancel, s, m0, m1, func(o object.Object) { seen[o.ID] = true }, func(int) {})
			return seen
		}
		gotSet, wantSet := collect(aOn), collect(aOff)
		if len(gotSet) != len(wantSet) {
			t.Fatalf("q%d: ForEachCross visited %d objects with signatures, %d without", qi, len(gotSet), len(wantSet))
		}
		for id := range wantSet {
			if !gotSet[id] {
				t.Fatalf("q%d: ForEachCross with signatures missed object %d", qi, id)
			}
		}
	}
}

// TestSignatureStatsCounters: traversals record probes, hits, and the
// exact set ops they still performed; the signature-free index records
// exact ops only.
func TestSignatureStatsCounters(t *testing.T) {
	ds := testDataset(t, 600, 37)
	on := Build(ds.Objects, rtree.DefaultMaxEntries)
	off := Build(ds.Objects, rtree.DefaultMaxEntries)
	off.SetSignatures(false)
	qs := testQueries(ds, 10, 41, 10, 2)
	for _, q := range qs {
		if _, err := on.TopK(q); err != nil {
			t.Fatal(err)
		}
		if _, err := off.TopK(q); err != nil {
			t.Fatal(err)
		}
	}
	if on.Stats().SigProbes() == 0 {
		t.Fatal("signature-enabled index recorded no probes")
	}
	if on.Stats().SigHits() == 0 {
		t.Fatal("signature-enabled index recorded no hits (bound never decisive?)")
	}
	if hits, probes := on.Stats().SigHits(), on.Stats().SigProbes(); hits > probes {
		t.Fatalf("hits %d > probes %d", hits, probes)
	}
	if off.Stats().SigProbes() != 0 || off.Stats().SigHits() != 0 {
		t.Fatalf("signature-disabled index recorded probes/hits: %d/%d",
			off.Stats().SigProbes(), off.Stats().SigHits())
	}
	if on.Stats().ExactSetOps() >= off.Stats().ExactSetOps() {
		t.Fatalf("signatures did not reduce exact set ops: %d >= %d",
			on.Stats().ExactSetOps(), off.Stats().ExactSetOps())
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
)

// TestSignatureEquivalence is the acceptance sweep of the keyword-
// signature pruning layer: across random datasets and mutation
// interleavings, every answer of the signature-enabled engine — top-k
// IDs and scores, ranks, explanations, preference and keyword
// refinement optima, batches — is byte-identical to the engine with
// signatures disabled.
func TestSignatureEquivalence(t *testing.T) {
	for _, seed := range []int64{41, 42} {
		ds, err := dataset.Generate(dataset.DefaultConfig(500, seed))
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("sig/seed=%d", seed)
		off := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, DisableSignatures: true})
		on := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
		qs := dataset.Workload(ds, dataset.WorkloadConfig{
			Queries: 4, Seed: seed + 200, K: 5, Keywords: 2,
			W: score.DefaultWeights, FromObjectDocs: true,
		})
		assertEquivalent(t, ctx+"/fresh", off, on, qs)

		// Identical mutation interleaving on both engines, then
		// re-check: freshly frozen arenas re-derive their signature
		// columns.
		rng := rand.New(rand.NewSource(seed + 9))
		for i := 0; i < 30; i++ {
			src := ds.Objects.Get(object.ID(rng.Intn(ds.Objects.Len())))
			o := object.Object{Loc: src.Loc, Doc: src.Doc, Name: "mut"}
			id1, err1 := off.Insert(o)
			id2, err2 := on.Insert(o)
			if err1 != nil || err2 != nil || id1 != id2 {
				t.Fatalf("%s: insert diverges: (%d, %v) vs (%d, %v)", ctx, id1, err1, id2, err2)
			}
			if i%5 == 4 {
				if e1, e2 := off.Remove(id1), on.Remove(id1); (e1 == nil) != (e2 == nil) {
					t.Fatalf("%s: remove diverges: %v vs %v", ctx, e1, e2)
				}
			}
		}
		assertEquivalent(t, ctx+"/mutated", off, on, qs)
	}
}

// TestSignatureEquivalenceDice: the signature bounds adapt to the Dice
// similarity model too — same sweep under Sim = SimDice.
func TestSignatureEquivalenceDice(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(500, 43))
	if err != nil {
		t.Fatal(err)
	}
	off := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, DisableSignatures: true})
	on := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 5, Seed: 44, K: 5, Keywords: 2,
		W: score.DefaultWeights, FromObjectDocs: true,
	})
	for i := range qs {
		qs[i].Sim = score.SimDice
	}
	assertEquivalent(t, "sig/dice", off, on, qs)
}

// TestSignatureStats: the engine surfaces the signature configuration
// and live hit/probe counters, aggregated across both families.
func TestSignatureStats(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(400, 45))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16})
	qs := dataset.Workload(ds, dataset.WorkloadConfig{
		Queries: 5, Seed: 46, K: 10, Keywords: 2,
		W: score.DefaultWeights, FromObjectDocs: true,
	})
	for _, q := range qs {
		if _, err := e.TopK(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if !st.Signatures {
		t.Fatal("Signatures = false, want true by default")
	}
	if st.SigProbes == 0 || st.SigHits == 0 {
		t.Fatalf("no signature activity recorded (probes %d, hits %d)", st.SigProbes, st.SigHits)
	}
	if st.SigHitRate <= 0 || st.SigHitRate > 1 {
		t.Fatalf("hit rate %v outside (0, 1]", st.SigHitRate)
	}
	var probes, hits int64
	for _, row := range st.PerShard {
		probes += row.SetSigProbes + row.KcSigProbes
		hits += row.SetSigHits + row.KcSigHits
	}
	if probes != st.SigProbes || hits != st.SigHits {
		t.Fatalf("per-family counters (%d, %d) do not sum to totals (%d, %d)",
			probes, hits, st.SigProbes, st.SigHits)
	}

	disabled := NewEngine(cloneCollection(ds.Objects), Options{MaxEntries: 16, DisableSignatures: true})
	for _, q := range qs {
		if _, err := disabled.TopK(q); err != nil {
			t.Fatal(err)
		}
	}
	dst := disabled.Stats()
	if dst.Signatures || dst.SigProbes != 0 || dst.SigHits != 0 {
		t.Fatalf("disabled engine reports signature activity: %+v", dst)
	}
}

package kcrtree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
)

// TestRefreshSignaturesMatchFromScratch drives an index through random
// bulk loads, inserts and removes, one to three between refreshes, with
// the signature layer occasionally switched off and on. After every
// refresh each published node signature must equal the one the KcR
// augmenter computes from the node's augmentation, and each entry
// signature the one of its object, however many of them the refresh
// carried over from the previous arena; and each node's augmentation
// and MBR must equal the fold over its entries or children, however the
// writes since the last refresh reached them.
func TestRefreshSignaturesMatchFromScratch(t *testing.T) {
	ds := testDataset(t, 400, 92)
	space := ds.Objects.Space()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := Build(ds.Objects, 4+rng.Intn(6))
		live := append([]object.Object(nil), ds.Objects.All()...)
		next := object.ID(ds.Objects.Len())
		fresh := func() object.Object {
			o := ds.Objects.Get(object.ID(rng.Intn(ds.Objects.Len())))
			o.ID = next
			next++
			o.Loc = geo.Point{X: space.Min.X + rng.Float64()*(space.Max.X-space.Min.X), Y: space.Min.Y + rng.Float64()*(space.Max.Y-space.Min.Y)}
			return o
		}
		sigsOn := true
		for step := 0; step < 150; step++ {
			for m := 1 + rng.Intn(3); m > 0; m-- {
				switch p := rng.Float64(); {
				case p < 0.02:
					live = live[:0]
					var es []rtree.LeafEntry[object.Object]
					for i := 50 + rng.Intn(300); i > 0; i-- {
						o := fresh()
						live = append(live, o)
						es = append(es, rtree.LeafEntry[object.Object]{Rect: o.Rect(), Item: o})
					}
					ix.Tree().BulkLoad(es)
				case p < 0.4 && len(live) > 0:
					i := rng.Intn(len(live))
					if !ix.Remove(live[i]) {
						t.Fatalf("seed %d step %d: remove of %d missed", seed, step, live[i].ID)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					o := fresh()
					ix.Insert(o)
					live = append(live, o)
				}
			}
			if rng.Intn(25) == 0 {
				sigsOn = !sigsOn
				ix.SetSignatures(sigsOn)
			}
			ix.Refresh()
			f := ix.Flat()
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			if f.Len() != len(live) || (f.NumNodes() > 0 && f.HasSigs() != sigsOn) {
				t.Fatalf("%s: %d items, signatures %v; want %d, %v", ctx, f.Len(), f.HasSigs(), len(live), sigsOn)
			}
			if err := f.VerifySigs(augmenter{}); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if err := f.VerifySummaries(augmenter{}); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
		}
	}
}

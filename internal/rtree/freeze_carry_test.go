package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/vocab"
)

// kwItem is a leaf item with a keyword document, the shape the index
// families' items have.
type kwItem struct {
	id  int
	doc vocab.KeywordSet
}

// unionSigger folds keyword documents into their union and counts the
// KeywordSigger calls Freeze makes.
type unionSigger struct {
	nodeSigs, leafSigs *int
}

func (unionSigger) FromLeaf(it kwItem) vocab.KeywordSet { return it.doc }

func (unionSigger) Merge(a, b vocab.KeywordSet) vocab.KeywordSet { return a.Union(b) }

func (s unionSigger) NodeSig(a *vocab.KeywordSet) vocab.Signature {
	*s.nodeSigs++
	return a.Signature()
}

func (s unionSigger) LeafSig(it *kwItem) vocab.Signature {
	*s.leafSigs++
	return it.doc.Signature()
}

// counts resets both call counters and returns their values before the
// reset.
func (s unionSigger) counts() (nodeSigs, leafSigs int) {
	nodeSigs, leafSigs = *s.nodeSigs, *s.leafSigs
	*s.nodeSigs, *s.leafSigs = 0, 0
	return nodeSigs, leafSigs
}

func newUnionSigger() unionSigger { return unionSigger{nodeSigs: new(int), leafSigs: new(int)} }

func randomKwItem(rng *rand.Rand, id int) (geo.Rect, kwItem) {
	var words []vocab.Keyword
	for n := 1 + rng.Intn(4); len(words) < n; {
		words = append(words, vocab.Keyword(rng.Intn(300)))
	}
	p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	return geo.RectFromPoint(p), kwItem{id: id, doc: vocab.NewKeywordSet(words...)}
}

// checkFrozenSigs fails unless every signature in f is the one the
// sigger computes from scratch for that node's augmentation or entry.
// The calls it makes are not counted.
func checkFrozenSigs(t *testing.T, ctx string, f *Flat[kwItem, vocab.KeywordSet], s unionSigger) {
	t.Helper()
	if err := f.VerifySigs(s); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	s.counts()
}

// findBelowRoot returns the first node below the root that satisfies
// ok, or nil.
func findBelowRoot(tr *Tree[kwItem, vocab.KeywordSet], ok func(*Node[kwItem, vocab.KeywordSet]) bool) *Node[kwItem, vocab.KeywordSet] {
	var walk func(n *Node[kwItem, vocab.KeywordSet]) *Node[kwItem, vocab.KeywordSet]
	walk = func(n *Node[kwItem, vocab.KeywordSet]) *Node[kwItem, vocab.KeywordSet] {
		for _, c := range n.children {
			if ok(c) {
				return c
			}
			if found := walk(c); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(tr.root)
}

// TestFreezeReHashesOnlyTouchedNodes pins the work of a freeze after a
// small write: the KeywordSigger runs only for the nodes the write
// changed, not for the whole tree.
func TestFreezeReHashesOnlyTouchedNodes(t *testing.T) {
	const n, maxE = 3000, 8
	rng := rand.New(rand.NewSource(11))
	s := newUnionSigger()
	tr := New[kwItem, vocab.KeywordSet](s, maxE)
	for i := 0; i < n; i++ {
		r, it := randomKwItem(rng, i)
		tr.Insert(r, it)
	}
	f := tr.Freeze()
	if nodeSigs, leafSigs := s.counts(); nodeSigs != tr.NodeCount() || leafSigs != n {
		t.Fatalf("first freeze: %d NodeSig / %d LeafSig calls, want %d / %d", nodeSigs, leafSigs, tr.NodeCount(), n)
	}
	checkFrozenSigs(t, "first freeze", f, s)

	f = tr.Freeze()
	if nodeSigs, leafSigs := s.counts(); nodeSigs != 0 || leafSigs != 0 {
		t.Fatalf("freeze without a write: %d NodeSig / %d LeafSig calls, want none", nodeSigs, leafSigs)
	}
	checkFrozenSigs(t, "unchanged", f, s)

	// bound freezes after one write and checks the calls it made.
	bound := func(ctx string, maxNode, maxLeaf int) {
		t.Helper()
		f := tr.Freeze()
		nodeSigs, leafSigs := s.counts()
		if nodeSigs > maxNode || leafSigs > maxLeaf {
			t.Fatalf("%s: %d NodeSig / %d LeafSig calls, want ≤ %d / ≤ %d (tree: %d nodes, %d entries)",
				ctx, nodeSigs, leafSigs, maxNode, maxLeaf, tr.NodeCount(), tr.Len())
		}
		checkFrozenSigs(t, ctx, f, s)
	}
	// insertInto inserts a fresh item into the leaf chooseLeaf picks for
	// the first random point whose target leaf satisfies ok.
	next := n
	insertInto := func(ok func(int) bool) {
		t.Helper()
		for tries := 0; tries < 10000; tries++ {
			r, it := randomKwItem(rng, next)
			if leaf, _ := tr.chooseLeaf(r); ok(len(leaf.entries)) {
				tr.Insert(r, it)
				next++
				return
			}
		}
		t.Fatal("no target leaf found")
	}

	// An insert that does not split changes one leaf and its ancestors.
	nodes := tr.NodeCount()
	insertInto(func(c int) bool { return c < maxE })
	if tr.NodeCount() != nodes {
		t.Fatal("insert into a non-full leaf split")
	}
	bound("insert", tr.Height(), tr.MaxEntries())

	// A split changes the leaf, adds its sibling, and may split every
	// ancestor in turn: at most two nodes per level.
	nodes = tr.NodeCount()
	insertInto(func(c int) bool { return c == maxE })
	if tr.NodeCount() == nodes {
		t.Fatal("insert into a full leaf did not split")
	}
	bound("split", 2*tr.Height(), tr.MaxEntries()+1)

	// A delete that condenses dissolves an underfull leaf and
	// re-inserts its minE-1 remaining entries, each of which may change
	// (and split) one more leaf and the path above it.
	leaf := findBelowRoot(tr, func(n *Node[kwItem, vocab.KeywordSet]) bool { return n.leaf && len(n.entries) == tr.minE })
	if leaf == nil {
		t.Fatal("no leaf at minimum fill")
	}
	victim := leaf.entries[0]
	if !tr.Delete(victim.Rect, func(it kwItem) bool { return it.id == victim.Item.id }) {
		t.Fatal("delete missed")
	}
	if findBelowRoot(tr, func(n *Node[kwItem, vocab.KeywordSet]) bool { return n == leaf }) != nil {
		t.Fatal("delete from a leaf at minimum fill did not condense it")
	}
	orphans := tr.minE - 1
	bound("condense", (orphans+1)*2*tr.Height(), orphans*(tr.MaxEntries()+1))
	if err := tr.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeCarryMatchesFromScratch is the property test of the
// signature carry-over: random bulk loads, inserts and deletes, one to
// three between freezes, with signatures occasionally switched off and
// on. After every freeze each node and entry signature must equal what
// the KeywordSigger computes from scratch.
func TestFreezeCarryMatchesFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newUnionSigger()
		tr := New[kwItem, vocab.KeywordSet](s, 4+rng.Intn(6))
		type stored struct {
			rect geo.Rect
			item kwItem
		}
		var live []stored
		next := 0
		sigsOn := true
		for step := 0; step < 250; step++ {
			for m := 1 + rng.Intn(3); m > 0; m-- {
				switch p := rng.Float64(); {
				case p < 0.02:
					es := make([]LeafEntry[kwItem], 50+rng.Intn(400))
					live = live[:0]
					for i := range es {
						r, it := randomKwItem(rng, next)
						next++
						es[i] = LeafEntry[kwItem]{Rect: r, Item: it}
						live = append(live, stored{r, it})
					}
					tr.BulkLoad(es)
				case p < 0.4 && len(live) > 0:
					i := rng.Intn(len(live))
					v := live[i]
					if !tr.Delete(v.rect, func(it kwItem) bool { return it.id == v.item.id }) {
						t.Fatalf("seed %d step %d: delete of %d missed", seed, step, v.item.id)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					r, it := randomKwItem(rng, next)
					next++
					tr.Insert(r, it)
					live = append(live, stored{r, it})
				}
			}
			if rng.Intn(25) == 0 {
				sigsOn = !sigsOn
				tr.SetFreezeSigs(sigsOn)
			}
			f := tr.Freeze()
			if f.NumNodes() > 0 && f.HasSigs() != sigsOn {
				t.Fatalf("seed %d step %d: HasSigs %v with signatures on=%v", seed, step, f.HasSigs(), sigsOn)
			}
			if f.Len() != len(live) {
				t.Fatalf("seed %d step %d: %d items frozen, want %d", seed, step, f.Len(), len(live))
			}
			checkFrozenSigs(t, fmt.Sprintf("seed %d step %d", seed, step), f, s)
		}
	}
}

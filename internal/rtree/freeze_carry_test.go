package rtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// KeywordSigger calls Freeze makes and the Merge calls of mutations.
type unionSigger struct {
	nodeSigs, leafSigs, merges *int
}

func (unionSigger) FromLeaf(it kwItem) vocab.KeywordSet { return it.doc }

func (s unionSigger) Merge(a, b vocab.KeywordSet) vocab.KeywordSet {
	*s.merges++
	return a.Union(b)
}

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

// mergeCount resets the Merge counter and returns its value before the
// reset.
func (s unionSigger) mergeCount() int {
	n := *s.merges
	*s.merges = 0
	return n
}

func newUnionSigger() unionSigger {
	return unionSigger{nodeSigs: new(int), leafSigs: new(int), merges: new(int)}
}

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

	// An insert that does not split changes one leaf and its ancestors,
	// folding the item's summary into each with one Merge.
	nodes := tr.NodeCount()
	s.mergeCount()
	insertInto(func(c int) bool { return c < maxE })
	if tr.NodeCount() != nodes {
		t.Fatal("insert into a non-full leaf split")
	}
	if merges := s.mergeCount(); merges > tr.Height()+1 {
		t.Fatalf("insert without a split: %d Merge calls, want ≤ %d (height %d)", merges, tr.Height()+1, tr.Height())
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

// scratchFlat lays the tree out the way Freeze does, from the nodes
// alone: a fresh copy of every leaf run and every signature hashed,
// nothing carried over. The sigger calls it makes are not counted.
func scratchFlat(tr *Tree[kwItem, vocab.KeywordSet], s unionSigger, sigs bool) *Flat[kwItem, vocab.KeywordSet] {
	defer s.counts()
	f := &Flat[kwItem, vocab.KeywordSet]{size: tr.size, gen: tr.gen.Load()}
	if tr.root == nil {
		return f
	}
	queue := []*Node[kwItem, vocab.KeywordSet]{tr.root}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		f.rects = append(f.rects, n.rect)
		f.augs = append(f.augs, n.aug)
		var run []LeafEntry[kwItem]
		var ss []vocab.Signature
		if n.leaf {
			f.childStart = append(f.childStart, 0)
			f.childEnd = append(f.childEnd, 0)
			run = append([]LeafEntry[kwItem]{}, n.entries...)
			ss = make([]vocab.Signature, len(run))
			for i := range run {
				ss[i] = s.LeafSig(&run[i].Item)
			}
		} else {
			lo := int32(len(queue))
			queue = append(queue, n.children...)
			f.childStart = append(f.childStart, lo)
			f.childEnd = append(f.childEnd, lo+int32(len(n.children)))
		}
		f.leafEntries = append(f.leafEntries, run)
		if sigs {
			f.sigs = append(f.sigs, s.NodeSig(&n.aug))
			f.leafSigs = append(f.leafSigs, ss)
		}
	}
	return f
}

// deepCopyFlat copies every column of f down to the keyword arrays, so
// a later write into any memory f references shows as a difference.
func deepCopyFlat(f *Flat[kwItem, vocab.KeywordSet]) *Flat[kwItem, vocab.KeywordSet] {
	cp := *f
	cp.rects = slices.Clone(f.rects)
	cp.childStart = slices.Clone(f.childStart)
	cp.childEnd = slices.Clone(f.childEnd)
	cp.sigs = slices.Clone(f.sigs)
	cp.augs = nil
	for _, a := range f.augs {
		cp.augs = append(cp.augs, slices.Clone(a))
	}
	cp.leafEntries = nil
	for _, run := range f.leafEntries {
		var c []LeafEntry[kwItem]
		if run != nil {
			c = make([]LeafEntry[kwItem], len(run))
			for i, e := range run {
				c[i] = LeafEntry[kwItem]{Rect: e.Rect, Item: kwItem{id: e.Item.id, doc: slices.Clone(e.Item.doc)}}
			}
		}
		cp.leafEntries = append(cp.leafEntries, c)
	}
	cp.leafSigs = nil
	for _, ss := range f.leafSigs {
		cp.leafSigs = append(cp.leafSigs, slices.Clone(ss))
	}
	return &cp
}

// diffFlats names the first column in which a and b differ, or returns
// "" when every column is equal.
func diffFlats(a, b *Flat[kwItem, vocab.KeywordSet]) string {
	switch {
	case a.size != b.size:
		return fmt.Sprintf("size %d vs %d", a.size, b.size)
	case !reflect.DeepEqual(a.rects, b.rects):
		return "rects"
	case !reflect.DeepEqual(a.augs, b.augs):
		return "augs"
	case !reflect.DeepEqual(a.childStart, b.childStart) || !reflect.DeepEqual(a.childEnd, b.childEnd):
		return "child ranges"
	case !reflect.DeepEqual(a.leafEntries, b.leafEntries):
		return "leaf runs"
	case !reflect.DeepEqual(a.sigs, b.sigs):
		return "node signatures"
	case !reflect.DeepEqual(a.leafSigs, b.leafSigs):
		return "entry signatures"
	}
	return ""
}

// kwCodec serializes kwItem leaves and keyword-set augmentations, so the
// property test can compare arena bytes. Only the append half is used.
type kwCodec struct{}

func appendKeywords(dst []byte, set vocab.KeywordSet) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(set)))
	for _, kw := range set {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(kw))
	}
	return dst
}

func (kwCodec) AppendItems(dst []byte, entries []LeafEntry[kwItem]) []byte {
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Item.id))
		dst = appendKeywords(dst, e.Item.doc)
	}
	return dst
}

func (kwCodec) DecodeItems([]byte, int) ([]LeafEntry[kwItem], error) {
	return nil, errors.New("kwCodec: decode unsupported")
}

func (kwCodec) AppendAugs(dst []byte, augs []vocab.KeywordSet) []byte {
	for _, a := range augs {
		dst = appendKeywords(dst, a)
	}
	return dst
}

func (kwCodec) DecodeAugs([]byte, int) ([]vocab.KeywordSet, error) {
	return nil, errors.New("kwCodec: decode unsupported")
}

// TestFreezeCarryMatchesFromScratch is the snapshot property test of
// the carry-over: random bulk loads, inserts and deletes, one to three
// between freezes, with signatures occasionally switched off and on.
// After every freeze each column — rects, augmentations, child ranges,
// leaf runs, node and entry signatures — must equal a from-scratch
// layout of the same tree, and so must the arena file bytes; and each
// of the last 8 snapshots must still equal the deep copy taken when it
// was frozen, however many later writes and freezes shared its runs.
func TestFreezeCarryMatchesFromScratch(t *testing.T) {
	const keep, steps = 8, 250
	meta := ArenaMeta{LSN: 7, MaxDist: 1, Vocab: []string{"a"}}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newUnionSigger()
		tr := New[kwItem, vocab.KeywordSet](s, 4+rng.Intn(6))
		type stored struct {
			rect geo.Rect
			item kwItem
		}
		type frozen struct {
			step       int
			flat, copy *Flat[kwItem, vocab.KeywordSet]
		}
		var live []stored
		var history []frozen
		next := 0
		sigsOn := true
		for step := 0; step < steps; step++ {
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
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			f := tr.Freeze()
			if f.NumNodes() > 0 && f.HasSigs() != sigsOn {
				t.Fatalf("%s: HasSigs %v with signatures on=%v", ctx, f.HasSigs(), sigsOn)
			}
			if f.Len() != len(live) {
				t.Fatalf("%s: %d items frozen, want %d", ctx, f.Len(), len(live))
			}
			checkFrozenSigs(t, ctx, f, s)
			if err := f.VerifySummaries(s); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			want := scratchFlat(tr, s, f.HasSigs())
			if d := diffFlats(f, want); d != "" {
				t.Fatalf("%s: %s differ from a from-scratch freeze", ctx, d)
			}
			if !bytes.Equal(f.AppendArena(nil, kwCodec{}, meta), want.AppendArena(nil, kwCodec{}, meta)) {
				t.Fatalf("%s: arena bytes differ from a from-scratch freeze's", ctx)
			}
			// A write into a snapshot's memory persists, so checking each
			// snapshot once, as it leaves the window of the last 8 (or at
			// the end), catches every write made while it was in it.
			history = append(history, frozen{step, f, deepCopyFlat(f)})
			check := history[:0]
			if len(history) > keep {
				check, history = history[:1], history[1:]
			}
			if step == steps-1 {
				check = history
			}
			for _, h := range check {
				if d := diffFlats(h.flat, h.copy); d != "" {
					t.Fatalf("%s: the snapshot frozen at step %d changed since: %s", ctx, h.step, d)
				}
			}
		}
	}
}

package settree

import (
	"encoding/binary"
	"fmt"

	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// This file is the SetR-tree's half of the arena persistence format
// (docs/FORMATS.md): the family-specific leaf-item and augmentation
// column codecs, plus SaveArena/LoadArena. Leaf items serialize as the
// object ID alone — the restored collection is the source of truth for
// location, document, and name — and the augmentation column is laid
// out so every node's Inter/Union keyword sets decode as zero-copy
// sub-slices of the mapped file.

// codec implements rtree.ArenaCodec for the SetR-tree.
//
// Items column: one little-endian u32 object ID per leaf entry.
//
// Augs column: a fixed 16-byte table row per node — u32 len(Inter),
// u32 len(Union), i32 MinLen, i32 MaxLen — followed by one keyword slab
// (u32 keyword IDs): node 0's Inter keywords, node 0's Union keywords,
// node 1's Inter, ... The table length is nodes*16, a multiple of 4, so
// the slab stays 4-byte aligned for keyword aliasing.
type codec struct {
	coll *object.Collection
	// vocabLen bounds every decoded keyword ID: the arena's embedded
	// vocabulary has exactly this many words.
	vocabLen int
}

func (codec) corrupt(format string, args ...any) error {
	return &wal.CorruptionError{Detail: "settree arena: " + fmt.Sprintf(format, args...)}
}

// AppendItems implements rtree.ArenaCodec.
func (codec) AppendItems(dst []byte, entries []rtree.LeafEntry[object.Object]) []byte {
	var b [4]byte
	for i := range entries {
		binary.LittleEndian.PutUint32(b[:], uint32(entries[i].Item.ID))
		dst = append(dst, b[:]...)
	}
	return dst
}

// DecodeItems implements rtree.ArenaCodec: IDs resolve against the
// restored collection, which reconstructs each entry's rect and item.
func (c codec) DecodeItems(blob []byte, n int) ([]rtree.LeafEntry[object.Object], error) {
	return decodeObjectItems(c.coll, blob, n)
}

// decodeObjectItems is the shared object-ID item decoder of both
// families (they index the same objects).
func decodeObjectItems(coll *object.Collection, blob []byte, n int) ([]rtree.LeafEntry[object.Object], error) {
	bad := func(format string, args ...any) error {
		return &wal.CorruptionError{Detail: "arena items: " + fmt.Sprintf(format, args...)}
	}
	if len(blob) != n*4 {
		return nil, bad("column is %d bytes, want %d", len(blob), n*4)
	}
	entries := make([]rtree.LeafEntry[object.Object], n)
	for i := 0; i < n; i++ {
		id := object.ID(binary.LittleEndian.Uint32(blob[i*4:]))
		if int(id) >= coll.Len() {
			return nil, bad("entry %d references object %d outside collection of %d", i, id, coll.Len())
		}
		if !coll.Alive(id) {
			return nil, bad("entry %d references dead object %d", i, id)
		}
		o := coll.Get(id)
		entries[i] = rtree.LeafEntry[object.Object]{Rect: o.Rect(), Item: o}
	}
	return entries, nil
}

// AppendAugs implements rtree.ArenaCodec.
func (codec) AppendAugs(dst []byte, augs []Aug) []byte {
	var b [4]byte
	p32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...)
	}
	for i := range augs {
		p32(uint32(len(augs[i].Inter)))
		p32(uint32(len(augs[i].Union)))
		p32(uint32(augs[i].MinLen))
		p32(uint32(augs[i].MaxLen))
	}
	for i := range augs {
		for _, kw := range augs[i].Inter {
			p32(uint32(kw))
		}
		for _, kw := range augs[i].Union {
			p32(uint32(kw))
		}
	}
	return dst
}

// DecodeAugs implements rtree.ArenaCodec. Each node's keyword sets are
// sub-slices of the mapped slab — no copy — after validating lengths,
// keyword-ID range, and the sorted-set invariant every merge-walk
// relies on.
func (c codec) DecodeAugs(blob []byte, nodes int) ([]Aug, error) {
	table := nodes * 16
	if len(blob) < table {
		return nil, c.corrupt("aug column is %d bytes, table alone needs %d", len(blob), table)
	}
	if (len(blob)-table)%4 != 0 {
		return nil, c.corrupt("keyword slab length %d is not a multiple of 4", len(blob)-table)
	}
	slab := rtree.AliasColumn[vocab.Keyword](blob[table:], 4)
	augs := make([]Aug, nodes)
	off := 0
	for i := 0; i < nodes; i++ {
		row := blob[i*16:]
		nInter := int(binary.LittleEndian.Uint32(row))
		nUnion := int(binary.LittleEndian.Uint32(row[4:]))
		minLen := int32(binary.LittleEndian.Uint32(row[8:]))
		maxLen := int32(binary.LittleEndian.Uint32(row[12:]))
		if nInter < 0 || nUnion < 0 || off+nInter+nUnion > len(slab) {
			return nil, c.corrupt("node %d keyword ranges overrun slab", i)
		}
		if minLen < 0 || minLen > maxLen {
			return nil, c.corrupt("node %d has length range [%d,%d]", i, minLen, maxLen)
		}
		inter := slab[off : off+nInter : off+nInter]
		off += nInter
		union := slab[off : off+nUnion : off+nUnion]
		off += nUnion
		for _, set := range [2]vocab.KeywordSet{vocab.KeywordSet(inter), vocab.KeywordSet(union)} {
			if err := checkKeywordSet(set, c.vocabLen); err != nil {
				return nil, c.corrupt("node %d: %v", i, err)
			}
		}
		augs[i] = Aug{Inter: vocab.KeywordSet(inter), Union: vocab.KeywordSet(union), MinLen: minLen, MaxLen: maxLen}
	}
	if off != len(slab) {
		return nil, c.corrupt("keyword slab has %d unused keywords", len(slab)-off)
	}
	return augs, nil
}

// checkKeywordSet enforces the KeywordSet invariant (strictly ascending
// IDs) and the arena's vocabulary bound on a decoded, possibly-mapped
// set.
func checkKeywordSet(set vocab.KeywordSet, vocabLen int) error {
	for i, kw := range set {
		if int(kw) >= vocabLen {
			return fmt.Errorf("keyword %d outside embedded vocabulary of %d", kw, vocabLen)
		}
		if i > 0 && set[i-1] >= kw {
			return fmt.Errorf("keyword set not strictly sorted at index %d", i)
		}
	}
	return nil
}

// SaveArena serializes the currently published arena in the on-disk
// format, stamped with the WAL position it is consistent with and the
// complete vocabulary in ID order (so a later process can pin keyword
// IDs before decoding).
func (ix *Index) SaveArena(lsn uint64, vocabWords []string) []byte {
	return ix.pub.Flat().AppendArena(nil, codec{coll: ix.coll},
		rtree.ArenaMeta{LSN: lsn, MaxDist: ix.coll.MaxDist(), Vocab: vocabWords})
}

// LoadArena builds an Index serving the mapped arena directly: queries
// traverse the file-backed columns with zero rebuild work. The
// collection must be the one restored from the checkpoint the arena was
// saved with (same LSN), with the arena's embedded vocabulary already
// pinned (vocab.EnsurePrefix). The first managed mutation thaws a live
// tree from the arena's own entries; maxEntries is its fanout. Every
// decode failure is a *wal.CorruptionError matching wal.ErrCorrupt.
func LoadArena(raw *rtree.RawArena, c *object.Collection, maxEntries int) (*Index, error) {
	f, err := rtree.BuildFlat[object.Object, Aug](raw, codec{coll: c, vocabLen: len(raw.Vocab())})
	if err != nil {
		return nil, err
	}
	ix := &Index{coll: c, sigs: raw.HasSigs()}
	wrap := func(ff *rtree.Flat[object.Object, Aug]) any {
		return &Arena{ix: ix, f: ff, maxDist: c.MaxDist()}
	}
	ix.pub = rtree.NewMappedPublisher(f, wrap, func(ff *rtree.Flat[object.Object, Aug]) *rtree.Tree[object.Object, Aug] {
		t := rtree.New[object.Object, Aug](augmenter{}, maxEntries)
		t.SetFreezeSigs(ix.sigs)
		// BulkLoad sorts its input in place; the mapped flat keeps
		// serving, so it must not see its entry slice reordered.
		t.BulkLoad(append([]rtree.LeafEntry[object.Object](nil), ff.AllEntries()...))
		return t
	})
	return ix, nil
}

// Mapped reports whether the index is still serving a mapped arena
// (loaded via LoadArena, no mutation has thawed it yet).
func (ix *Index) Mapped() bool { return ix.pub.Mapped() }

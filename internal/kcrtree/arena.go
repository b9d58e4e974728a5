package kcrtree

import (
	"encoding/binary"
	"fmt"

	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/wal"
)

// This file is the KcR-tree's half of the arena persistence format
// (docs/FORMATS.md). Leaf items serialize as object IDs against the
// restored collection; the augmentation column is a fixed table plus
// one packed KV slab, laid out so every node's Counts map decodes as a
// zero-copy sub-slice of the mapped file (KV is two 4-byte fields — its
// in-memory layout is exactly the encoded layout on little-endian
// hosts, which is the only kind that maps arenas).

// codec implements rtree.ArenaCodec for the KcR-tree.
//
// Items column: one little-endian u32 object ID per leaf entry.
//
// Augs column: a fixed 20-byte table row per node — u32 len(Counts),
// i32 Cnt, i32 InterLen, i32 MinLen, i32 MaxLen — followed by one KV
// slab: each pair as u32 keyword, i32 count, concatenated in node
// order. The table length is nodes*20, a multiple of 4, so the slab
// stays 4-byte aligned for KV aliasing.
type codec struct {
	coll     *object.Collection
	vocabLen int
}

func (codec) corrupt(format string, args ...any) error {
	return &wal.CorruptionError{Detail: "kcrtree arena: " + fmt.Sprintf(format, args...)}
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

// DecodeItems implements rtree.ArenaCodec.
func (c codec) DecodeItems(blob []byte, n int) ([]rtree.LeafEntry[object.Object], error) {
	bad := func(format string, args ...any) error {
		return c.corrupt("items: "+format, args...)
	}
	if len(blob) != n*4 {
		return nil, bad("column is %d bytes, want %d", len(blob), n*4)
	}
	entries := make([]rtree.LeafEntry[object.Object], n)
	for i := 0; i < n; i++ {
		id := object.ID(binary.LittleEndian.Uint32(blob[i*4:]))
		if int(id) >= c.coll.Len() {
			return nil, bad("entry %d references object %d outside collection of %d", i, id, c.coll.Len())
		}
		if !c.coll.Alive(id) {
			return nil, bad("entry %d references dead object %d", i, id)
		}
		o := c.coll.Get(id)
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
		p32(uint32(len(augs[i].Counts)))
		p32(uint32(augs[i].Cnt))
		p32(uint32(augs[i].InterLen))
		p32(uint32(augs[i].MinLen))
		p32(uint32(augs[i].MaxLen))
	}
	for i := range augs {
		for _, kv := range augs[i].Counts {
			p32(uint32(kv.K))
			p32(uint32(kv.N))
		}
	}
	return dst
}

// DecodeAugs implements rtree.ArenaCodec. Each node's Counts is a
// sub-slice of the mapped KV slab — no copy — after validating lengths,
// keyword range, the sorted-map invariant the binary searches rely on,
// and the derived statistics (Cnt, InterLen, length range) the rank
// bounds are computed from.
func (c codec) DecodeAugs(blob []byte, nodes int) ([]Aug, error) {
	table := nodes * 20
	if len(blob) < table {
		return nil, c.corrupt("aug column is %d bytes, table alone needs %d", len(blob), table)
	}
	if (len(blob)-table)%8 != 0 {
		return nil, c.corrupt("KV slab length %d is not a multiple of 8", len(blob)-table)
	}
	slab := rtree.AliasColumn[KV](blob[table:], 8)
	augs := make([]Aug, nodes)
	off := 0
	for i := 0; i < nodes; i++ {
		row := blob[i*20:]
		n := int(binary.LittleEndian.Uint32(row))
		cnt := int32(binary.LittleEndian.Uint32(row[4:]))
		interLen := int32(binary.LittleEndian.Uint32(row[8:]))
		minLen := int32(binary.LittleEndian.Uint32(row[12:]))
		maxLen := int32(binary.LittleEndian.Uint32(row[16:]))
		if n < 0 || off+n > len(slab) {
			return nil, c.corrupt("node %d count range overruns slab", i)
		}
		counts := Counts(slab[off : off+n : off+n])
		off += n
		if cnt < 0 || minLen < 0 || minLen > maxLen {
			return nil, c.corrupt("node %d has impossible statistics (cnt %d, lengths [%d,%d])", i, cnt, minLen, maxLen)
		}
		var gotInter int32
		for j, kv := range counts {
			if int(kv.K) >= c.vocabLen {
				return nil, c.corrupt("node %d keyword %d outside embedded vocabulary of %d", i, kv.K, c.vocabLen)
			}
			if j > 0 && counts[j-1].K >= kv.K {
				return nil, c.corrupt("node %d counts not strictly sorted at index %d", i, j)
			}
			if kv.N < 1 || kv.N > cnt {
				return nil, c.corrupt("node %d count %d for keyword %d outside [1,%d]", i, kv.N, kv.K, cnt)
			}
			if kv.N == cnt {
				gotInter++
			}
		}
		if gotInter != interLen {
			return nil, c.corrupt("node %d stores InterLen %d, counts imply %d", i, interLen, gotInter)
		}
		augs[i] = Aug{Counts: counts, Cnt: cnt, InterLen: interLen, MinLen: minLen, MaxLen: maxLen}
	}
	if off != len(slab) {
		return nil, c.corrupt("KV slab has %d unused pairs", len(slab)-off)
	}
	return augs, nil
}

// SaveArena serializes the currently published arena in the on-disk
// format; see settree.Index.SaveArena.
func (ix *Index) SaveArena(lsn uint64, vocabWords []string) []byte {
	return ix.pub.Flat().AppendArena(nil, codec{coll: ix.coll},
		rtree.ArenaMeta{LSN: lsn, MaxDist: ix.coll.MaxDist(), Vocab: vocabWords})
}

// LoadArena builds an Index serving the mapped arena directly; see
// settree.LoadArena for the contract (matching collection, pinned
// vocabulary, thaw-on-first-mutation with maxEntries fanout).
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
		// AllEntries assembles a fresh slice, so the mapped flat that
		// keeps serving never sees it reordered.
		t.BulkLoad(ff.AllEntries())
		return t
	})
	return ix, nil
}

// Mapped reports whether the index is still serving a mapped arena.
func (ix *Index) Mapped() bool { return ix.pub.Mapped() }

package rtree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// This file implements the on-disk arena format: a frozen Flat snapshot
// serialized as a small checksummed header followed by its
// struct-of-arrays columns, each length-prefixed and CRC32C-framed like
// a WAL record. The encoding is little-endian and every column payload
// starts 8-byte aligned, so on little-endian hosts a loaded file can be
// mmap'd and the POD columns (node MBRs, child/entry ranges, signature
// bitmaps) served as Go slices aliasing the mapping — no copy, no
// rebuild. docs/FORMATS.md is the normative byte-level specification.

const (
	// arenaMagic opens every arena file.
	arenaMagic = "YASKARN1"
	// ArenaVersion is the format version this build reads and writes.
	// Readers refuse any other version (surfaced as wal.ErrCorrupt, which
	// boot treats as "rebuild instead").
	ArenaVersion = 1
	// arenaHeaderSize is the fixed byte length of the header, including
	// its trailing CRC32C. It is a multiple of 8 so the first column
	// frame starts aligned.
	arenaHeaderSize = 72
	// arenaFlagSigs marks files carrying the keyword-signature columns.
	arenaFlagSigs = 1 << 0
)

// arenaCastagnoli is the CRC32C table shared by the header and every
// column frame — the same polynomial the WAL uses.
var arenaCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ArenaMeta is the engine-level metadata stamped into an arena file's
// header alongside the snapshot's own geometry.
type ArenaMeta struct {
	// LSN is the WAL position the snapshot is consistent with; boot only
	// maps arena files whose LSN matches the checkpoint it restored.
	LSN uint64
	// MaxDist is the SDist normalization constant of the collection at
	// save time (the space diagonal, dead rows included).
	MaxDist float64
	// Vocab is the complete keyword vocabulary in ID order. It is
	// embedded in the file because every keyword column stores dense IDs:
	// a later process re-interns this exact list first, which pins each
	// saved ID to the same word.
	Vocab []string
}

// ArenaCodec serializes the type-parameterized columns of a Flat — the
// leaf items and the node augmentations — that the generic layer cannot
// lay out itself. Each index family provides one; the POD columns are
// handled by the format directly.
//
// Decode methods must validate everything they read (lengths, offsets,
// ID ranges, sort invariants): the framing CRC catches bit rot, but a
// decoder must never index out of bounds or hand back a value that
// violates the family's invariants, no matter the bytes.
type ArenaCodec[L, A any] interface {
	// AppendItems appends the leaf-item column for entries to dst.
	// AppendArena calls it once per leaf run on the same dst, so
	// appending two runs in turn must equal appending their
	// concatenation.
	AppendItems(dst []byte, entries []LeafEntry[L]) []byte
	// DecodeItems reconstructs the n leaf entries (item AND rect) from
	// the column payload. blob may alias an mmap'd file: decoded values
	// may sub-slice it but must never write to it.
	DecodeItems(blob []byte, n int) ([]LeafEntry[L], error)
	// AppendAugs appends the node-augmentation column for augs to dst.
	AppendAugs(dst []byte, augs []A) []byte
	// DecodeAugs reconstructs the nodes augmentation values from the
	// column payload, under the same aliasing rules as DecodeItems.
	DecodeAugs(blob []byte, nodes int) ([]A, error)
}

// arenaHeader is the decoded fixed header of an arena file.
type arenaHeader struct {
	flags      uint32
	nodes      uint32
	entries    uint32
	generation uint64
	lsn        uint64
	maxDist    float64
	vocabCount uint32
}

func (h *arenaHeader) hasSigs() bool { return h.flags&arenaFlagSigs != 0 }

// appendArenaHeader encodes h at the end of dst, CRC included.
func appendArenaHeader(dst []byte, h arenaHeader) []byte {
	base := len(dst)
	dst = append(dst, arenaMagic...)
	var b8 [8]byte
	p32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		dst = append(dst, b8[:4]...)
	}
	p64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		dst = append(dst, b8[:]...)
	}
	p32(ArenaVersion)
	p32(h.flags)
	p32(h.nodes)
	p32(h.entries)
	p32(h.vocabCount)
	p32(0) // reserved
	p64(h.generation)
	p64(h.lsn)
	p64(math.Float64bits(h.maxDist))
	// Reserved tail: pads the header to its fixed 72 bytes (a multiple
	// of 8, so the first column payload lands aligned) and leaves room
	// for future versions to add fields without moving the columns.
	dst = append(dst, make([]byte, arenaHeaderSize-4-(len(dst)-base))...)
	p32(crc32.Checksum(dst[base:], arenaCastagnoli))
	return dst
}

// corruptArena builds the typed corruption error every arena-format
// failure surfaces: it matches wal.ErrCorrupt, which recovery treats as
// "this file is unusable — rebuild", never as data.
func corruptArena(path string, off int64, format string, args ...any) error {
	return &wal.CorruptionError{Path: path, Offset: off, Detail: fmt.Sprintf(format, args...)}
}

// parseArenaHeader decodes and verifies the fixed header.
func parseArenaHeader(path string, data []byte) (arenaHeader, error) {
	var h arenaHeader
	if len(data) < arenaHeaderSize {
		return h, corruptArena(path, 0, "file truncated inside header: %d bytes", len(data))
	}
	hdr := data[:arenaHeaderSize]
	if string(hdr[:8]) != arenaMagic {
		return h, corruptArena(path, 0, "bad magic %q", hdr[:8])
	}
	sum := binary.LittleEndian.Uint32(hdr[arenaHeaderSize-4:])
	if got := crc32.Checksum(hdr[:arenaHeaderSize-4], arenaCastagnoli); got != sum {
		return h, corruptArena(path, 0, "header CRC mismatch: stored %08x, computed %08x", sum, got)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != ArenaVersion {
		return h, corruptArena(path, 8, "unsupported arena version %d (want %d)", v, ArenaVersion)
	}
	h.flags = binary.LittleEndian.Uint32(hdr[12:])
	h.nodes = binary.LittleEndian.Uint32(hdr[16:])
	h.entries = binary.LittleEndian.Uint32(hdr[20:])
	h.vocabCount = binary.LittleEndian.Uint32(hdr[24:])
	h.generation = binary.LittleEndian.Uint64(hdr[32:])
	h.lsn = binary.LittleEndian.Uint64(hdr[40:])
	h.maxDist = math.Float64frombits(binary.LittleEndian.Uint64(hdr[48:]))
	return h, nil
}

// appendColumn appends one framed column: u32 payload length, u32
// CRC32C of the payload, the payload, then zero padding to the next
// 8-byte boundary (so the following frame — and therefore the following
// payload — stays aligned for zero-copy slice aliasing).
func appendColumn(dst, payload []byte) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(payload)))
	dst = append(dst, b[:]...)
	binary.LittleEndian.PutUint32(b[:], crc32.Checksum(payload, arenaCastagnoli))
	dst = append(dst, b[:]...)
	dst = append(dst, payload...)
	for len(dst)%8 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

// readColumn verifies the framed column at data[off:] and returns its
// payload (aliasing data) and the offset of the next frame.
func readColumn(path string, data []byte, off int) ([]byte, int, error) {
	if off+8 > len(data) {
		return nil, 0, corruptArena(path, int64(off), "file truncated inside column frame")
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if off+8+n > len(data) || n < 0 {
		return nil, 0, corruptArena(path, int64(off), "column length %d overruns file", n)
	}
	payload := data[off+8 : off+8+n]
	if got := crc32.Checksum(payload, arenaCastagnoli); got != sum {
		return nil, 0, corruptArena(path, int64(off), "column CRC mismatch: stored %08x, computed %08x", sum, got)
	}
	next := off + 8 + n
	for next%8 != 0 {
		next++
	}
	return payload, next, nil
}

// appendRects encodes the node-MBR column: 4 little-endian float64s per
// node (MinX MinY MaxX MaxY).
func appendRects(dst []byte, rects []geo.Rect) []byte {
	var b [8]byte
	for _, r := range rects {
		for _, v := range [4]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			dst = append(dst, b[:]...)
		}
	}
	return dst
}

// appendInt32s encodes one int32 range column, little-endian.
func appendInt32s(dst []byte, vs []int32) []byte {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// appendSigs encodes a signature column: vocab.SigWords little-endian
// uint64s per signature.
func appendSigs(dst []byte, sigs []vocab.Signature) []byte {
	var b [8]byte
	for i := range sigs {
		for _, w := range sigs[i] {
			binary.LittleEndian.PutUint64(b[:], w)
			dst = append(dst, b[:]...)
		}
	}
	return dst
}

// appendVocab encodes the embedded vocabulary column: each word as a
// u32 byte length followed by its UTF-8 bytes, in keyword-ID order.
func appendVocab(dst []byte, words []string) []byte {
	var b [4]byte
	for _, w := range words {
		binary.LittleEndian.PutUint32(b[:], uint32(len(w)))
		dst = append(dst, b[:]...)
		dst = append(dst, w...)
	}
	return dst
}

// decodeVocab parses the embedded vocabulary column.
func decodeVocab(path string, blob []byte, count uint32) ([]string, error) {
	words := make([]string, 0, count)
	off := 0
	for i := uint32(0); i < count; i++ {
		if off+4 > len(blob) {
			return nil, corruptArena(path, int64(off), "vocab column truncated at word %d", i)
		}
		n := int(binary.LittleEndian.Uint32(blob[off:]))
		off += 4
		if n < 0 || off+n > len(blob) {
			return nil, corruptArena(path, int64(off), "vocab word %d length %d overruns column", i, n)
		}
		words = append(words, string(blob[off:off+n]))
		off += n
	}
	if off != len(blob) {
		return nil, corruptArena(path, int64(off), "vocab column has %d trailing bytes", len(blob)-off)
	}
	return words, nil
}

// AppendArena serializes the snapshot to dst in the arena file format:
// header, then the framed columns in fixed order — node MBRs,
// childStart, childEnd, entryStart, entryEnd, node signatures, entry
// signatures (both empty when the snapshot has none), the codec's leaf
// items, the codec's node augmentations, and the embedded vocabulary.
// The leaf runs are written back to back in node order, and the entry
// ranges are their offsets in that concatenation.
func (f *Flat[L, A]) AppendArena(dst []byte, codec ArenaCodec[L, A], meta ArenaMeta) []byte {
	nodes := len(f.rects)
	entryStart := make([]int32, nodes)
	entryEnd := make([]int32, nodes)
	var entrySigs, items []byte
	off := int32(0)
	for n := 0; n < nodes; n++ {
		if !f.IsLeaf(int32(n)) {
			continue
		}
		run := f.leafEntries[n]
		entryStart[n] = off
		off += int32(len(run))
		entryEnd[n] = off
		items = codec.AppendItems(items, run)
		if f.HasSigs() {
			entrySigs = appendSigs(entrySigs, f.leafSigs[n])
		}
	}
	h := arenaHeader{
		nodes:      uint32(nodes),
		entries:    uint32(off),
		generation: f.gen,
		lsn:        meta.LSN,
		maxDist:    meta.MaxDist,
		vocabCount: uint32(len(meta.Vocab)),
	}
	if f.HasSigs() {
		h.flags |= arenaFlagSigs
	}
	dst = appendArenaHeader(dst, h)
	dst = appendColumn(dst, appendRects(nil, f.rects))
	dst = appendColumn(dst, appendInt32s(nil, f.childStart))
	dst = appendColumn(dst, appendInt32s(nil, f.childEnd))
	dst = appendColumn(dst, appendInt32s(nil, entryStart))
	dst = appendColumn(dst, appendInt32s(nil, entryEnd))
	dst = appendColumn(dst, appendSigs(nil, f.sigs))
	dst = appendColumn(dst, entrySigs)
	dst = appendColumn(dst, items)
	dst = appendColumn(dst, codec.AppendAugs(nil, f.augs))
	dst = appendColumn(dst, appendVocab(nil, meta.Vocab))
	return dst
}

// RawArena is a verified, still-typed-column view of one mapped arena
// file: the header plus every column payload, CRC-checked, with the POD
// columns already aliased as Go slices of the mapping. BuildFlat turns
// it into a servable *Flat once the codec's inputs (the object
// collection, for the engine's families) exist.
//
// Close unmaps the file; only call it on a RawArena whose slices were
// never handed to a published Flat (the load-failure and test paths).
// Mapped arenas that reached publication stay mapped for the process
// lifetime — in-flight queries may hold their slices at any time.
type RawArena struct {
	path    string
	data    []byte
	unmap   func() error
	hdr     arenaHeader
	rects   []geo.Rect
	cStart  []int32
	cEnd    []int32
	eStart  []int32
	eEnd    []int32
	sigs    []vocab.Signature
	eSigs   []vocab.Signature
	items   []byte
	augs    []byte
	vocab   []string
	mapped  bool
	retired bool
}

// Path returns the file the arena was mapped from.
func (r *RawArena) Path() string { return r.path }

// LSN returns the WAL position stamped at save time.
func (r *RawArena) LSN() uint64 { return r.hdr.lsn }

// MaxDist returns the SDist normalization constant stamped at save time.
func (r *RawArena) MaxDist() float64 { return r.hdr.maxDist }

// HasSigs reports whether the file carries the signature columns.
func (r *RawArena) HasSigs() bool { return r.hdr.hasSigs() }

// Vocab returns the embedded vocabulary in keyword-ID order.
func (r *RawArena) Vocab() []string { return r.vocab }

// Bytes returns the mapped file size.
func (r *RawArena) Bytes() int64 { return int64(len(r.data)) }

// Mapped reports whether the file is served by a real memory mapping
// (false on platforms without mmap, where the file was read into heap
// memory instead — same layout, same semantics, one copy).
func (r *RawArena) Mapped() bool { return r.mapped }

// Close releases the mapping. See the type comment for when this is
// safe; it is idempotent.
func (r *RawArena) Close() error {
	if r.retired || r.unmap == nil {
		return nil
	}
	r.retired = true
	return r.unmap()
}

// OpenArena maps the arena file at path and verifies its header, every
// column CRC, and the structural invariants of the POD columns (range
// bounds, the contiguous breadth-first layout). Every failure is a
// *wal.CorruptionError matching wal.ErrCorrupt; the caller falls back
// to an index rebuild — a damaged arena file can cost time, never
// correctness.
//
// The typed-column decode (leaf items, augmentations) happens later in
// BuildFlat, because it needs the restored object collection.
func OpenArena(path string) (*RawArena, error) {
	if !hostLittleEndian {
		// The format is always little-endian; a big-endian host cannot
		// alias the columns. Not corruption — just "rebuild instead".
		return nil, fmt.Errorf("rtree: arena mapping unsupported on big-endian hosts")
	}
	data, unmap, mapped, err := mapArenaFile(path)
	if err != nil {
		return nil, err
	}
	r := &RawArena{path: path, data: data, unmap: unmap, mapped: mapped}
	if err := r.parse(); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// parse verifies the header and frames, then aliases the POD columns.
func (r *RawArena) parse() error {
	h, err := parseArenaHeader(r.path, r.data)
	if err != nil {
		return err
	}
	r.hdr = h
	off := arenaHeaderSize
	col := func() ([]byte, error) {
		payload, next, err := readColumn(r.path, r.data, off)
		off = next
		return payload, err
	}
	rects, err := colSized(r.path, col, "rects", int(h.nodes)*32)
	if err != nil {
		return err
	}
	r.rects = aliasSlice[geo.Rect](rects, 32)
	ranges := [4]*[]int32{&r.cStart, &r.cEnd, &r.eStart, &r.eEnd}
	for i, name := range [4]string{"childStart", "childEnd", "entryStart", "entryEnd"} {
		p, err := colSized(r.path, col, name, int(h.nodes)*4)
		if err != nil {
			return err
		}
		*ranges[i] = aliasSlice[int32](p, 4)
	}
	sigBytes := 0
	if h.hasSigs() {
		sigBytes = vocab.SigWords * 8
	}
	sigs, err := colSized(r.path, col, "sigs", int(h.nodes)*sigBytes)
	if err != nil {
		return err
	}
	eSigs, err := colSized(r.path, col, "entrySigs", int(h.entries)*sigBytes)
	if err != nil {
		return err
	}
	if h.hasSigs() {
		r.sigs = aliasSlice[vocab.Signature](sigs, vocab.SigWords*8)
		r.eSigs = aliasSlice[vocab.Signature](eSigs, vocab.SigWords*8)
	}
	if r.items, err = col(); err != nil {
		return err
	}
	if r.augs, err = col(); err != nil {
		return err
	}
	vb, err := col()
	if err != nil {
		return err
	}
	if r.vocab, err = decodeVocab(r.path, vb, h.vocabCount); err != nil {
		return err
	}
	if off != len(r.data) {
		return corruptArena(r.path, int64(off), "%d trailing bytes after last column", len(r.data)-off)
	}
	return r.validateShape()
}

// colSized reads the next column and enforces its exact byte length.
func colSized(path string, col func() ([]byte, error), name string, want int) ([]byte, error) {
	p, err := col()
	if err != nil {
		return nil, err
	}
	if len(p) != want {
		return nil, &wal.CorruptionError{Path: path,
			Detail: fmt.Sprintf("column %s is %d bytes, want %d", name, len(p), want)}
	}
	return p, nil
}

// validateShape checks the structural invariants the traversals rely on
// — bounded, contiguous, forward-pointing breadth-first ranges — so a
// file that passed its CRCs still cannot send a query out of bounds or
// into a cycle.
func (r *RawArena) validateShape() error {
	nodes := int32(r.hdr.nodes)
	entries := int32(r.hdr.entries)
	if nodes == 0 {
		if entries != 0 {
			return corruptArena(r.path, 0, "%d entries with no nodes", entries)
		}
		return nil
	}
	nextChild, nextEntry := int32(1), int32(0)
	for i := int32(0); i < nodes; i++ {
		cs, ce := r.cStart[i], r.cEnd[i]
		es, ee := r.eStart[i], r.eEnd[i]
		switch {
		case cs != ce: // internal node
			if cs != nextChild || ce < cs || ce > nodes || cs <= i {
				return corruptArena(r.path, 0,
					"node %d child range [%d,%d) breaks BFS layout (next %d, nodes %d)", i, cs, ce, nextChild, nodes)
			}
			if es != 0 || ee != 0 {
				return corruptArena(r.path, 0, "internal node %d has entry range [%d,%d)", i, es, ee)
			}
			nextChild = ce
		default: // leaf
			if es != nextEntry || ee < es || ee > entries {
				return corruptArena(r.path, 0,
					"leaf %d entry range [%d,%d) breaks layout (next %d, entries %d)", i, es, ee, nextEntry, entries)
			}
			nextEntry = ee
		}
	}
	if nextChild != nodes {
		return corruptArena(r.path, 0, "child ranges cover %d of %d nodes", nextChild, nodes)
	}
	if nextEntry != entries {
		return corruptArena(r.path, 0, "entry ranges cover %d of %d entries", nextEntry, entries)
	}
	return nil
}

// BuildFlat decodes the typed columns through the family codec and
// assembles the servable snapshot. The returned Flat's POD columns
// alias the mapping; it has no source tree (never stale), a fresh Stats
// collector, and a zero epoch — publishing it (rtree.NewMappedPublisher)
// stamps the epoch exactly like any other published arena.
func BuildFlat[L, A any](r *RawArena, codec ArenaCodec[L, A]) (*Flat[L, A], error) {
	entries, err := codec.DecodeItems(r.items, int(r.hdr.entries))
	if err != nil {
		return nil, err
	}
	if len(entries) != int(r.hdr.entries) {
		return nil, corruptArena(r.path, 0, "codec decoded %d items, want %d", len(entries), r.hdr.entries)
	}
	augs, err := codec.DecodeAugs(r.augs, int(r.hdr.nodes))
	if err != nil {
		return nil, err
	}
	if len(augs) != int(r.hdr.nodes) {
		return nil, corruptArena(r.path, 0, "codec decoded %d augs, want %d", len(augs), r.hdr.nodes)
	}
	// Slice the decoded items and the mapped signature column per leaf:
	// the runs alias them, no copy. The full slice expressions cap each
	// run at its end, so no run reaches into the next.
	leafEntries := make([][]LeafEntry[L], r.hdr.nodes)
	var leafSigs [][]vocab.Signature
	if r.sigs != nil {
		leafSigs = make([][]vocab.Signature, r.hdr.nodes)
	}
	for n := range leafEntries {
		if r.cStart[n] != r.cEnd[n] {
			continue
		}
		lo, hi := r.eStart[n], r.eEnd[n]
		leafEntries[n] = entries[lo:hi:hi]
		if leafSigs != nil {
			leafSigs[n] = r.eSigs[lo:hi:hi]
		}
	}
	return &Flat[L, A]{
		rects:       r.rects,
		augs:        augs,
		childStart:  r.cStart,
		childEnd:    r.cEnd,
		leafEntries: leafEntries,
		sigs:        r.sigs,
		leafSigs:    leafSigs,
		size:        len(entries),
		stats:       &Stats{},
		gen:         r.hdr.generation,
	}, nil
}

// WriteArenaFile writes data to path with the same atomicity protocol
// as checkpoints: temp file in the same directory, write, fsync, close,
// rename into place, fsync the directory. A crash leaves either the old
// file set or the new one, never a torn arena under the final name.
func WriteArenaFile(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".arena-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncArenaDir(dir)
}

// readArenaFile is the no-mmap fallback loader: the whole file in one
// heap slice (Go heap slices of this size are 8-byte aligned, which the
// column aliasing relies on).
func readArenaFile(path string) (data []byte, unmap func() error, mapped bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false, err
	}
	return b, func() error { return nil }, false, nil
}

// syncArenaDir fsyncs the directory so the rename itself is durable.
func syncArenaDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

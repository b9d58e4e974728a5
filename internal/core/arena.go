// Arena persistence: the engine half of the mmap-able index snapshots.
//
// When Options.MmapArenas is set on a durable engine,
// every checkpoint also writes one arena file per index family
// (arena-set-<lsn>.yar, arena-kc-<lsn>.yar — the serialized frozen
// rtree.Flat columns, docs/FORMATS.md) with the same atomic-rename
// protocol as the checkpoint itself. Boot then mmaps the arena set
// matching the restored checkpoint LSN and serves queries straight off
// the file-backed columns: no bulk-load, no aug recomputation, warm
// top-k still allocation-free. The WAL suffix replays through the
// ordinary managed path — the first replayed (or live) mutation thaws a
// real tree from the mapped entries.
//
// Arena files are an optimization, never an authority: any open,
// checksum, version, vocabulary, or shape failure falls back to the
// ordinary checkpoint+WAL rebuild with the reason recorded in
// DurabilityStats.Arena. Corruption is surfaced as wal.ErrCorrupt in
// that reason — it can cost boot time, never correctness.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/yask-engine/yask/internal/kcrtree"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/settree"
	"github.com/yask-engine/yask/internal/wal"
)

// arenaKeepSets mirrors wal.KeepCheckpoints: arena files for this many
// checkpoint LSNs survive pruning, so a boot that falls back to the
// previous checkpoint can still find its arenas.
const arenaKeepSets = 2

// arenaFamilies names the per-family arena files, in write order.
var arenaFamilies = [2]string{"set", "kc"}

// arenaPath is the canonical file name of one family's arena at one
// checkpoint LSN.
func arenaPath(dir, family string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("arena-%s-%016x.yar", family, lsn))
}

// ArenaStats is the durability.arena stats section: the state of arena
// persistence on this engine.
type ArenaStats struct {
	// Enabled reports MmapArenas active on a durable engine.
	Enabled bool `json:"enabled"`
	// MmapBoot reports that this boot mapped its index arenas instead of
	// rebuilding them.
	MmapBoot bool `json:"mmapBoot"`
	// RebuildSkipped reports that boot did no index-build work at all:
	// arenas mapped AND no WAL suffix forced a thaw during replay.
	RebuildSkipped bool `json:"rebuildSkipped"`
	// MappedNow counts families still serving mapped file-backed columns
	// (0 after the first mutation thaws them).
	MappedNow int `json:"mappedNow"`
	// FallbackReason records why an enabled boot rebuilt instead of
	// mapping (corrupt file, vocabulary conflict, missing arena set, …).
	FallbackReason string `json:"fallbackReason,omitempty"`
	// SetsWritten counts complete arena sets written by checkpoints this
	// process; BytesWritten their total size.
	SetsWritten  int64 `json:"setsWritten"`
	BytesWritten int64 `json:"bytesWritten"`
	// LastWriteError records the most recent failed arena write (the
	// checkpoint itself still succeeded — arenas are best-effort).
	LastWriteError string `json:"lastWriteError,omitempty"`
}

// loadedArenas is the successful result of tryLoadArenas: both families
// decoded over the restored collection.
type loadedArenas struct {
	coll *object.Collection
	set  *settree.Index
	kc   *kcrtree.Index
}

// tryLoadArenas attempts the mmap boot path: open both family arenas
// for the checkpoint LSN, pin the embedded vocabulary, restore the
// collection, and build both indexes over the mapped columns. It
// returns nil with a reason on ANY failure — the caller falls back to
// the ordinary rebuild; nothing here is allowed to fail the boot.
func tryLoadArenas(opts Options, lsn uint64, rows []wal.Row) (*loadedArenas, string) {
	maxE := opts.MaxEntries
	if maxE == 0 {
		maxE = rtree.DefaultMaxEntries
	}
	raws := make([]*rtree.RawArena, 0, len(arenaFamilies))
	// On any fallback the mappings must be released: nothing was
	// published, so unmapping is safe here and keeps a corrupt-file
	// retry loop (or a fault-injection test) from leaking mappings.
	closeAll := func() {
		for _, r := range raws {
			r.Close()
		}
	}
	for _, family := range arenaFamilies {
		raw, err := rtree.OpenArena(arenaPath(opts.DataDir, family, lsn))
		if err != nil {
			closeAll()
			return nil, fmt.Sprintf("opening %s arena: %v", family, err)
		}
		raws = append(raws, raw)
		if got := raw.LSN(); got != lsn {
			closeAll()
			return nil, fmt.Sprintf("%s arena stamped LSN %d, checkpoint is %d", family, got, lsn)
		}
		if raw.HasSigs() == opts.DisableSignatures {
			closeAll()
			return nil, fmt.Sprintf("%s arena signature columns do not match engine configuration", family)
		}
		if !opts.Vocab.EnsurePrefix(raw.Vocab()) {
			closeAll()
			return nil, fmt.Sprintf("%s arena vocabulary conflicts with already-interned keywords", family)
		}
	}
	coll, err := collectionFromRows(rows, opts.Vocab)
	if err != nil {
		closeAll()
		return nil, fmt.Sprintf("restoring collection: %v", err)
	}
	for i, family := range arenaFamilies {
		if got := raws[i].MaxDist(); got != coll.MaxDist() {
			closeAll()
			return nil, fmt.Sprintf("%s arena normalization constant %v does not match collection %v", family, got, coll.MaxDist())
		}
	}
	set, err := settree.LoadArena(raws[0], coll, maxE)
	if err != nil {
		closeAll()
		return nil, fmt.Sprintf("decoding set arena: %v", err)
	}
	kc, err := kcrtree.LoadArena(raws[1], coll, maxE)
	if err != nil {
		closeAll()
		return nil, fmt.Sprintf("decoding kc arena: %v", err)
	}
	if set.Flat().Len() != coll.LiveLen() || kc.Flat().Len() != coll.LiveLen() {
		closeAll()
		return nil, fmt.Sprintf("arena entry counts (%d, %d) do not cover the %d live objects",
			set.Flat().Len(), kc.Flat().Len(), coll.LiveLen())
	}
	// Published from here on: the mappings live for the process —
	// in-flight queries may hold their slices at any point.
	return &loadedArenas{coll: coll, set: set, kc: kc}, ""
}

// writeArenasLocked persists both family arenas for the checkpoint at
// lsn. Called under e.mu right after the checkpoint file lands; a
// failure is recorded, not returned — the checkpoint alone already
// guarantees recovery, arenas only make it cheap.
func (e *Engine) writeArenasLocked(lsn uint64) {
	d := e.dur
	if d == nil || !d.arenasEnabled {
		return
	}
	if e.pending > 0 {
		// The published flats lag the collection by the buffered
		// mutations; the arena must equal the checkpoint exactly.
		e.refreshLocked()
	}
	words := d.vocab.All()
	var bytes int64
	for i, family := range arenaFamilies {
		var data []byte
		if i == 0 {
			data = e.set.SaveArena(lsn, words)
		} else {
			data = e.kc.SaveArena(lsn, words)
		}
		if err := rtree.WriteArenaFile(arenaPath(d.dir, family, lsn), data); err != nil {
			d.arenaWriteErr = fmt.Sprintf("writing %s arena: %v", family, err)
			return
		}
		bytes += int64(len(data))
	}
	d.arenasWritten++
	d.arenaBytes += bytes
	d.arenaWriteErr = ""
	pruneArenas(d.dir)
}

// pruneArenas removes arena files older than the arenaKeepSets newest
// checkpoint LSNs present in the directory. Best-effort, like
// checkpoint pruning: a leftover file can waste disk, never correctness
// (boot only maps the exact LSN it restored).
func pruneArenas(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	type af struct {
		name string
		lsn  uint64
	}
	var files []af
	lsns := map[uint64]bool{}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "arena-") || !strings.HasSuffix(name, ".yar") {
			continue
		}
		hex := name[strings.LastIndexByte(name, '-')+1 : len(name)-len(".yar")]
		lsn, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		files = append(files, af{name: name, lsn: lsn})
		lsns[lsn] = true
	}
	if len(lsns) <= arenaKeepSets {
		return
	}
	keep := make([]uint64, 0, len(lsns))
	for lsn := range lsns {
		keep = append(keep, lsn)
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i] > keep[j] })
	cut := keep[arenaKeepSets-1]
	for _, f := range files {
		if f.lsn < cut {
			os.Remove(filepath.Join(dir, f.name))
		}
	}
}

// arenaStatsLocked assembles the durability.arena section; e.mu held.
func (e *Engine) arenaStatsLocked() *ArenaStats {
	d := e.dur
	st := &ArenaStats{
		Enabled:        d.arenasEnabled,
		MmapBoot:       d.mmapBoot,
		RebuildSkipped: d.rebuildSkipped,
		FallbackReason: d.arenaFallback,
		SetsWritten:    d.arenasWritten,
		BytesWritten:   d.arenaBytes,
		LastWriteError: d.arenaWriteErr,
	}
	if e.set.Mapped() {
		st.MappedNow++
	}
	if e.kc.Mapped() {
		st.MappedNow++
	}
	return st
}

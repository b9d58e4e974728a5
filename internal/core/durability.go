// Durability: the engine half of the WAL + checkpoint subsystem.
//
// Open boots a durable engine from Options.DataDir: it loads the newest
// valid checkpoint (a full snapshot of the collection at some LSN),
// builds the engine over it, replays every WAL record past that LSN
// through the same managed apply path live mutations use, and
// republishes the index snapshots. Because live inserts log the global
// ID they are about to be assigned and replay re-applies in LSN order
// under the mutation lock, a recovered engine assigns identical IDs and answers every query byte-identically to the
// engine that wrote the log.
//
// On the mutation path, every accepted Insert/Remove is appended to the
// WAL (and acknowledged per the fsync policy) before any in-memory
// state changes; a checkpoint snapshots the collection, rotates the
// log, retires the segments the snapshot covers, and prunes old
// checkpoint files.
package core

import (
	"errors"
	"fmt"

	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// ErrNotDurable is returned by Checkpoint on a memory-only engine.
var ErrNotDurable = errors.New("core: engine has no data directory")

// durability is the engine's WAL/checkpoint state. The log serializes
// its own appends, but every field below it is guarded by Engine.mu —
// the mutation path holds it across append+apply, which is what pins
// the WAL order to the global-ID order.
type durability struct {
	dir    string
	vocab  *vocab.Vocabulary
	log    *wal.Log
	policy wal.SyncPolicy

	checkpointEvery   int
	sinceCheckpoint   int
	lastCheckpointLSN uint64
	checkpoints       int64
	replayed          int

	// Arena persistence bookkeeping (arena.go). arenasEnabled is
	// Options.MmapArenas; the rest feed DurabilityStats.Arena.
	arenasEnabled  bool
	mmapBoot       bool
	rebuildSkipped bool
	arenaFallback  string
	arenasWritten  int64
	arenaBytes     int64
	arenaWriteErr  string
}

// DurabilityStats is the WAL/checkpoint section of EngineStats.
type DurabilityStats struct {
	// Dir is the data directory, Fsync the acknowledgement policy.
	Dir   string `json:"dir"`
	Fsync string `json:"fsync"`
	// WalAppends / WalFsyncs / WalRotations count records appended,
	// explicit fsyncs issued, and segment rotations since boot.
	WalAppends   int64 `json:"walAppends"`
	WalFsyncs    int64 `json:"walFsyncs"`
	WalRotations int64 `json:"walRotations"`
	// Segments is the number of live WAL segment files, WalBytes their
	// total size.
	Segments int   `json:"segments"`
	WalBytes int64 `json:"walBytes"`
	// LastLSN is the newest logged mutation; LastCheckpoint the LSN the
	// newest completed checkpoint covers; SinceCheckpoint the mutations
	// logged after it; Checkpoints how many checkpoints this process
	// wrote.
	LastLSN         uint64 `json:"lastLSN"`
	LastCheckpoint  uint64 `json:"lastCheckpoint"`
	SinceCheckpoint int    `json:"sinceCheckpoint"`
	Checkpoints     int64  `json:"checkpoints"`
	// ReplayedRecords is how many WAL records boot recovery replayed.
	ReplayedRecords int `json:"replayedRecords"`
	// Arena reports mmap arena persistence state; present when
	// Options.MmapArenas was requested.
	Arena *ArenaStats `json:"arena,omitempty"`
}

// fsyncPolicy reports the policy the log was opened with.
func (d *durability) fsyncPolicy() string { return d.policy.String() }

// Open boots an engine from opts.DataDir. When the directory holds no
// checkpoint and no WAL yet (first boot), initial seeds the collection
// — pass the dataset's objects, or nil for an empty engine — and an
// initial checkpoint is written immediately so the directory is
// self-contained from then on. On later boots initial is ignored: the
// newest valid checkpoint plus the WAL suffix fully determine the
// state.
//
// Recovery errors are permanent (a damaged non-tail record, a missing
// segment, every checkpoint unreadable): Open fails with an error
// matching wal.ErrCorrupt rather than serving wrong or silently stale
// answers.
func Open(initial []object.Object, opts Options) (*Engine, error) {
	if opts.DataDir == "" {
		return nil, ErrNotDurable
	}
	if opts.Vocab == nil {
		return nil, errors.New("core: durability requires Options.Vocab")
	}

	ckptLSN, rows, err := wal.LoadCheckpoint(opts.DataDir)
	if err != nil {
		return nil, fmt.Errorf("core: loading checkpoint: %w", err)
	}

	var coll *object.Collection
	firstBoot := rows == nil && ckptLSN == 0
	var arenas *loadedArenas
	var arenaFallback string
	if opts.MmapArenas && !firstBoot {
		// The mmap path restores the collection itself (the embedded
		// vocabulary must be pinned before keywords are interned); on any
		// failure it reports why and we rebuild below as if the option
		// were off.
		arenas, arenaFallback = tryLoadArenas(opts, ckptLSN, rows)
	}
	switch {
	case arenas != nil:
		coll = arenas.coll
	case firstBoot:
		coll = object.NewCollection(initial)
	default:
		if coll, err = collectionFromRows(rows, opts.Vocab); err != nil {
			return nil, err
		}
	}

	memOpts := opts
	memOpts.DataDir = "" // newEngineWith builds the in-memory engine only
	var e *Engine
	if arenas != nil {
		e = newEngineWith(coll, memOpts, arenas.set, arenas.kc)
	} else {
		e = NewEngine(coll, memOpts)
	}

	log, records, err := wal.Open(opts.DataDir, ckptLSN, wal.Options{
		SegmentSize:  opts.WALSegmentSize,
		Sync:         opts.Fsync,
		SyncInterval: opts.FsyncInterval,
		WrapFile:     opts.WrapWALFile,
	})
	if err != nil {
		return nil, fmt.Errorf("core: opening wal: %w", err)
	}
	d := &durability{
		dir:               opts.DataDir,
		vocab:             opts.Vocab,
		log:               log,
		policy:            opts.Fsync,
		checkpointEvery:   opts.CheckpointEvery,
		lastCheckpointLSN: ckptLSN,
		arenasEnabled:     opts.MmapArenas,
		mmapBoot:          arenas != nil,
		arenaFallback:     arenaFallback,
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range records {
		if err := e.replayLocked(r, opts.Vocab); err != nil {
			log.Close()
			return nil, err
		}
	}
	d.replayed = len(records)
	d.sinceCheckpoint = len(records)
	// A replayed mutation thaws the mapped arenas back into trees; only
	// a clean-suffix boot truly skipped every index build.
	d.rebuildSkipped = d.mmapBoot && len(records) == 0
	e.refreshLocked()
	e.dur = d

	if firstBoot {
		// Make the directory self-contained: later boots must never
		// depend on the caller passing the same initial objects again.
		if err := e.checkpointLocked(); err != nil {
			log.Close()
			return nil, err
		}
	}
	return e, nil
}

// collectionFromRows rebuilds the collection a checkpoint snapshotted,
// re-interning every keyword into vocab. Rows are written in ID order;
// density is validated here (and by the collection constructor) so a
// logically inconsistent checkpoint cannot boot.
func collectionFromRows(rows []wal.Row, v *vocab.Vocabulary) (*object.Collection, error) {
	objs := make([]object.Object, len(rows))
	var dead []bool
	for i, r := range rows {
		if int(r.ID) != i {
			return nil, fmt.Errorf("core: checkpoint row %d has ID %d (IDs must be dense): %w", i, r.ID, wal.ErrCorrupt)
		}
		objs[i] = object.Object{
			ID:   object.ID(r.ID),
			Loc:  geo.Point{X: r.X, Y: r.Y},
			Doc:  v.InternSet(r.Keywords...),
			Name: r.Name,
		}
		if !r.Alive {
			if dead == nil {
				dead = make([]bool, len(rows))
			}
			dead[i] = true
		}
	}
	return object.NewCollectionWithDead(objs, dead), nil
}

// replayLocked re-applies one WAL record through the managed apply
// path, verifying the recorded ID against the replayed assignment — a
// mismatch means the checkpoint and log disagree, which is corruption,
// not something to paper over.
func (e *Engine) replayLocked(r wal.Record, v *vocab.Vocabulary) error {
	switch r.Op {
	case wal.OpInsert:
		o := object.Object{
			Loc:  geo.Point{X: r.X, Y: r.Y},
			Doc:  v.InternSet(r.Keywords...),
			Name: r.Name,
		}
		id := e.applyInsertLocked(o)
		if id != object.ID(r.ID) {
			return fmt.Errorf("core: replay of LSN %d assigned ID %d, record says %d: %w", r.LSN, id, r.ID, wal.ErrCorrupt)
		}
	case wal.OpRemove:
		id := object.ID(r.ID)
		if int(id) >= e.coll.Len() || !e.coll.Alive(id) {
			return fmt.Errorf("core: replay of LSN %d removes ID %d which is %s: %w",
				r.LSN, r.ID, removeReplayState(e.coll, id), wal.ErrCorrupt)
		}
		e.applyRemoveLocked(id)
	default:
		return fmt.Errorf("core: replay of LSN %d has unknown op %d: %w", r.LSN, r.Op, wal.ErrCorrupt)
	}
	return nil
}

func removeReplayState(c *object.Collection, id object.ID) string {
	if int(id) >= c.Len() {
		return "out of range"
	}
	return "already removed"
}

// logInsert appends the insert record for o (to be assigned id) and
// acknowledges it per the fsync policy. Called under e.mu, before any
// in-memory mutation.
func (d *durability) logInsert(id object.ID, o object.Object) error {
	_, err := d.log.Append(wal.Record{
		Op:       wal.OpInsert,
		ID:       uint32(id),
		X:        o.Loc.X,
		Y:        o.Loc.Y,
		Name:     o.Name,
		Keywords: d.vocab.Words(o.Doc),
	})
	return err
}

// logRemove appends the tombstone record for id. Called under e.mu.
func (d *durability) logRemove(id object.ID) error {
	_, err := d.log.Append(wal.Record{Op: wal.OpRemove, ID: uint32(id)})
	return err
}

// maybeCheckpointLocked runs the automatic checkpoint trigger after a
// logged mutation.
func (e *Engine) maybeCheckpointLocked() {
	d := e.dur
	if d == nil {
		return
	}
	d.sinceCheckpoint++
	if d.checkpointEvery <= 0 || d.sinceCheckpoint < d.checkpointEvery {
		return
	}
	// A checkpoint failure must not fail the mutation that triggered it
	// — the mutation is already durable in the WAL; the next trigger or
	// explicit Checkpoint retries (and reports).
	_ = e.checkpointLocked()
}

// Checkpoint atomically writes a full snapshot of the collection,
// rotates the WAL, retires the segments the snapshot covers, and prunes
// old checkpoint files. It returns ErrNotDurable on a memory-only
// engine.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dur == nil {
		return ErrNotDurable
	}
	if e.closed {
		return errEngineClosed
	}
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	d := e.dur
	// Everything at or below the log's current LSN is in the collection
	// — the caller holds mu, so no mutation is in flight.
	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("core: checkpoint wal sync: %w", err)
	}
	lsn := d.log.LastLSN()
	v := e.coll.View()
	rows := make([]wal.Row, v.Len())
	for id, o := range v.All() {
		rows[id] = wal.Row{
			ID:       uint32(id),
			Alive:    v.Alive(object.ID(id)),
			X:        o.Loc.X,
			Y:        o.Loc.Y,
			Name:     o.Name,
			Keywords: d.vocab.Words(o.Doc),
		}
	}
	if _, err := wal.WriteCheckpoint(d.dir, lsn, rows); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	// The snapshot is durable; everything it covers can go.
	if err := d.log.Rotate(); err != nil {
		return fmt.Errorf("core: rotating wal after checkpoint: %w", err)
	}
	if _, err := d.log.Retire(lsn); err != nil {
		return fmt.Errorf("core: retiring wal segments: %w", err)
	}
	if _, err := wal.PruneCheckpoints(d.dir); err != nil {
		return fmt.Errorf("core: pruning checkpoints: %w", err)
	}
	d.lastCheckpointLSN = lsn
	d.sinceCheckpoint = 0
	d.checkpoints++
	e.writeArenasLocked(lsn)
	return nil
}

// Close shuts the engine down: the WAL is flushed and closed, and every
// later mutation fails. Queries keep serving the last published
// snapshots. Close is idempotent and a no-op for memory-only engines.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.dur == nil {
		return nil
	}
	return e.dur.log.Close()
}

// durabilityStats snapshots the durability counters (nil for a
// memory-only engine). The checkpoint bookkeeping is read under e.mu;
// the log counters have their own lock.
func (e *Engine) durabilityStats() *DurabilityStats {
	e.mu.Lock()
	d := e.dur
	if d == nil {
		e.mu.Unlock()
		return nil
	}
	st := &DurabilityStats{
		Dir:             d.dir,
		Fsync:           d.fsyncPolicy(),
		LastCheckpoint:  d.lastCheckpointLSN,
		SinceCheckpoint: d.sinceCheckpoint,
		Checkpoints:     d.checkpoints,
		ReplayedRecords: d.replayed,
	}
	if d.arenasEnabled || d.arenaFallback != "" {
		st.Arena = e.arenaStatsLocked()
	}
	e.mu.Unlock()
	ls := d.log.Stats()
	st.WalAppends = ls.Appends
	st.WalFsyncs = ls.Fsyncs
	st.WalRotations = ls.Rotations
	st.Segments = ls.Segments
	st.WalBytes = ls.Size
	st.LastLSN = ls.LastLSN
	return st
}

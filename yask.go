// Package yask is a whY-not question Answering engine for Spatial
// Keyword query services — a Go implementation of the system presented
// in "YASK: A Why-Not Question Answering Engine for Spatial Keyword
// Query Services" (Chen, Xu, Jensen, Li; PVLDB 9(13), 2016).
//
// The engine answers spatial keyword top-k queries — "the k objects
// ranked highest by a mix of spatial proximity and textual similarity" —
// and, when a user asks why an expected object is missing from a result,
// explains the absence and produces a minimally modified refined query
// that revives the missing object, under two refinement models:
//
//   - Preference adjustment: move the weighting between spatial distance
//     and textual similarity (and enlarge k if needed).
//   - Keyword adaption: edit the query keyword set (and enlarge k if
//     needed).
//
// Quick start:
//
//	eng, err := yask.NewEngine(objects)
//	res, err := eng.TopK(yask.Query{X: 114.17, Y: 22.30, Keywords: []string{"coffee"}, K: 3})
//	exp, err := eng.Explain(query, []yask.ObjectID{missingID})
//	ref, err := eng.WhyNotPreference(query, []yask.ObjectID{missingID}, yask.RefineOptions{})
//
// All engine methods are safe for concurrent use.
package yask

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/yask-engine/yask/internal/core"
	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// ErrNotDurable is returned by Checkpoint on a memory-only engine
// (EngineOptions.DataDir unset).
var ErrNotDurable = core.ErrNotDurable

// ObjectID identifies an object within an engine. IDs are assigned
// densely, in input order, at engine construction.
type ObjectID = uint32

// Object is one spatial web object handed to NewEngine: a planar
// location (for geographic data, X is longitude and Y latitude) and the
// keywords describing it. Keywords are case-folded; duplicates are
// dropped.
type Object struct {
	Name     string
	X, Y     float64
	Keywords []string
}

// Query is a spatial keyword top-k query. The weighting Wt between
// textual similarity (Wt) and spatial proximity (1−Wt) is a system
// parameter per the paper; the zero value selects the default ⟨0.5, 0.5⟩.
type Query struct {
	// X, Y is the query location.
	X, Y float64
	// Keywords is the query keyword set (at least one keyword).
	Keywords []string
	// K is the number of objects to retrieve.
	K int
	// Wt is the textual-similarity weight in (0, 1); 0 means the
	// default 0.5. The spatial weight is 1 − Wt.
	Wt float64
	// Similarity selects the textual similarity model: "" or "jaccard"
	// for the paper's default Jaccard coefficient, "dice" for the
	// Dice–Sørensen coefficient.
	Similarity string
}

// Result is one ranked answer.
type Result struct {
	ID    ObjectID
	Name  string
	X, Y  float64
	Score float64
	// SDist and TSim are the normalized components behind Score.
	SDist, TSim float64
	Keywords    []string
}

// Explanation mirrors core's explanation generator output with
// human-readable keywords.
type Explanation struct {
	ID     ObjectID
	Name   string
	Rank   int
	Score  float64
	SDist  float64
	TSim   float64
	Reason string
	Detail string
	// SuggestPreference / SuggestKeyword indicate which refinement model
	// the explanation generator expects to revive the object.
	SuggestPreference, SuggestKeyword bool
}

// RefineOptions configures the why-not refinement calls.
type RefineOptions struct {
	// Lambda is the penalty trade-off λ ∈ [0, 1] between enlarging k
	// and modifying the query (Eqns 3/4 of the paper). The zero value
	// selects the paper's default 0.5. To request a true λ = 0, set
	// LambdaIsZero.
	Lambda       float64
	LambdaIsZero bool
}

func (o RefineOptions) lambda() float64 {
	if o.LambdaIsZero {
		return 0
	}
	if o.Lambda == 0 {
		return core.DefaultLambda
	}
	return o.Lambda
}

// PreferenceRefinement is a preference-adjusted refined query.
type PreferenceRefinement struct {
	// Ws, Wt are the refined weights; K is the refined result size.
	Ws, Wt float64
	K      int
	// Penalty is Eqn 3 for this refinement; DeltaK and DeltaW are its
	// components.
	Penalty float64
	DeltaK  int
	DeltaW  float64
	// RankBefore/RankAfter are the worst missing-object ranks under the
	// initial and refined query.
	RankBefore, RankAfter int
	// Query is the ready-to-run refined query.
	Query Query
}

// KeywordRefinement is a keyword-adapted refined query.
type KeywordRefinement struct {
	// Keywords is the refined keyword set; K the refined result size.
	Keywords []string
	K        int
	// Added and Removed are the edits applied to the original keywords.
	Added, Removed []string
	// Penalty is Eqn 4; DeltaK and DeltaDoc are its components.
	Penalty  float64
	DeltaK   int
	DeltaDoc int
	// RankBefore/RankAfter are the worst missing-object ranks under the
	// initial and refined query.
	RankBefore, RankAfter int
	// Query is the ready-to-run refined query.
	Query Query
}

// Engine is the public YASK engine: a spatial keyword top-k query
// processor with why-not question answering.
type Engine struct {
	core  *core.Engine
	vocab *vocab.Vocabulary
}

// EngineOptions configures NewEngineWith.
type EngineOptions struct {
	// RefreshEvery batches live-update snapshot refreshes: the engine
	// re-freezes its index arenas after every RefreshEvery mutations
	// instead of after each one, amortizing the freeze over a mutation
	// storm (call Refresh to force publication early). Zero or one
	// refreshes on every mutation.
	RefreshEvery int
	// RefreshInterval rate-limits mutation-triggered refreshes: under a
	// mutation storm the engine re-freezes at most once per interval
	// even when RefreshEvery fires, bounding the freeze work a storm
	// can cause. Mutations deferred inside the window publish
	// automatically at its trailing edge, so staleness is bounded by
	// the interval; an explicit Refresh is never rate-limited. Zero
	// disables the rate limit.
	RefreshInterval time.Duration
	// DisableSignatures turns off the keyword-signature pruning layer —
	// the fixed-width hashed bitmaps frozen into every index arena that
	// let traversals skip exact keyword merge-walks whenever a
	// constant-time bitmap bound is decisive. On by default; answers
	// are byte-identical either way. The switch exists for ablation
	// measurements and as an operational escape hatch.
	DisableSignatures bool
	// CacheEntries and CacheBytes bound the epoch-keyed result cache:
	// repeated queries against an unchanged published snapshot are
	// answered from memory instead of re-traversing the indexes. Zero
	// selects the defaults (4096 entries, 64 MiB). The cache never
	// changes answers — entries are keyed by the snapshot's epoch
	// identity, so every refresh or recovery silently orphans stale
	// entries. DisableCache turns it off entirely (the
	// ablation and escape hatch, mirroring DisableSignatures).
	CacheEntries int
	CacheBytes   int64
	DisableCache bool
	// DataDir enables crash-safe durability: every accepted
	// Insert/Remove is appended to a write-ahead log in this directory
	// before it mutates the engine, and checkpoints snapshot the whole
	// collection. On construction the engine recovers from the newest
	// valid checkpoint plus the WAL; the constructor's objects/dataset
	// seed the very first boot only. Empty means memory-only.
	DataDir string
	// Fsync selects when a mutation is acknowledged as durable:
	// "always" (default — fsync before every mutation returns),
	// "interval" (write immediately, fsync on a timer: a process crash
	// loses nothing, a power cut at most FsyncInterval of acknowledged
	// mutations), or "none" (leave flushing to the OS).
	Fsync string
	// FsyncInterval is the flush period of Fsync "interval"; zero
	// selects a 100ms default.
	FsyncInterval time.Duration
	// CheckpointEvery writes a checkpoint (and retires the WAL segments
	// it covers) automatically after this many logged mutations; zero
	// means checkpoints happen only through explicit Checkpoint calls
	// and at graceful shutdown.
	CheckpointEvery int
	// MmapArenas persists the frozen index arenas alongside every
	// checkpoint (arena-<family>-<lsn>.yar, docs/FORMATS.md) and boots
	// by memory-mapping them instead of re-bulk-loading the indexes: the
	// query structures come up in O(file open), not O(n log n), and warm
	// top-k stays allocation-free on the mapped columns. Any damaged or
	// mismatched arena falls back to the ordinary rebuild — the option
	// trades boot time, never correctness. Ignored without DataDir.
	//
	// Mapping requires the arena's embedded keyword labeling to pin into
	// the booting engine's vocabulary, so reopen with the same seed
	// objects the directory was created with (as a restarted server
	// reloading its dataset naturally does); a conflicting seed
	// vocabulary boots by rebuild with the reason recorded in the
	// durability.arena stats.
	MmapArenas bool
}

// coreOptions maps the public options onto the internal engine,
// resolving the fsync policy. v is the vocabulary the
// engine's documents are interned in; the durability layer needs it to
// spell keywords back into strings for its log records.
func (opts EngineOptions) coreOptions(v *vocab.Vocabulary) (core.Options, error) {
	fsync, err := wal.ParseSyncPolicy(opts.Fsync)
	if err != nil {
		return core.Options{}, fmt.Errorf("yask: %w", err)
	}
	return core.Options{
		RefreshEvery:      opts.RefreshEvery,
		RefreshInterval:   opts.RefreshInterval,
		DisableSignatures: opts.DisableSignatures,
		CacheEntries:      opts.CacheEntries,
		CacheBytes:        opts.CacheBytes,
		DisableCache:      opts.DisableCache,
		DataDir:           opts.DataDir,
		Fsync:             fsync,
		FsyncInterval:     opts.FsyncInterval,
		CheckpointEvery:   opts.CheckpointEvery,
		MmapArenas:        opts.MmapArenas,
		Vocab:             v,
	}, nil
}

// buildCore constructs the internal engine: memory-only through
// core.NewEngine, durable (Options.DataDir set) through core.Open with
// initial as the first-boot seed.
func buildCore(initial []object.Object, coll *object.Collection, copts core.Options) (*core.Engine, error) {
	if copts.DataDir == "" {
		return core.NewEngine(coll, copts), nil
	}
	return core.Open(initial, copts)
}

// NewEngine indexes the given objects and returns a ready engine.
func NewEngine(objects []Object) (*Engine, error) {
	return NewEngineWith(objects, EngineOptions{})
}

// NewEngineWith is NewEngine with explicit engine options.
func NewEngineWith(objects []Object, opts EngineOptions) (*Engine, error) {
	if len(objects) == 0 {
		return nil, errors.New("yask: need at least one object")
	}
	v := vocab.NewVocabulary()
	copts, err := opts.coreOptions(v)
	if err != nil {
		return nil, err
	}
	objs := make([]object.Object, len(objects))
	for i, o := range objects {
		objs[i] = object.Object{
			ID:   object.ID(i),
			Name: o.Name,
			Loc:  geo.Point{X: o.X, Y: o.Y},
			Doc:  v.InternSet(o.Keywords...),
		}
		if objs[i].Doc.Empty() {
			return nil, fmt.Errorf("yask: object %d (%q) has no keywords", i, o.Name)
		}
	}
	c, err := buildCore(objs, object.NewCollection(objs), copts)
	if err != nil {
		return nil, err
	}
	return &Engine{core: c, vocab: v}, nil
}

// newFromDataset wraps an internal dataset; used by the demo constructor
// and the server.
func newFromDataset(ds *dataset.Dataset, opts EngineOptions) (*Engine, error) {
	copts, err := opts.coreOptions(ds.Vocab)
	if err != nil {
		return nil, err
	}
	c, err := buildCore(ds.Objects.All(), ds.Objects, copts)
	if err != nil {
		return nil, err
	}
	return &Engine{core: c, vocab: ds.Vocab}, nil
}

// HKDemoEngine returns an engine over the built-in demo dataset: a
// deterministic synthetic stand-in for the paper's 539 Hong Kong hotels.
func HKDemoEngine() *Engine {
	return HKDemoEngineWith(EngineOptions{})
}

// HKDemoEngineWith is HKDemoEngine with explicit engine options. It
// panics on invalid options (an unknown fsync policy): the demo
// constructor takes configuration, not data, so a bad value is a
// programming error. When options carry a DataDir —
// where construction can fail for operational I/O reasons — use
// OpenHKDemoEngine instead.
func HKDemoEngineWith(opts EngineOptions) *Engine {
	e, err := OpenHKDemoEngine(opts)
	if err != nil {
		panic(err)
	}
	return e
}

// OpenHKDemoEngine is HKDemoEngineWith returning errors instead of
// panicking — the form for durable configurations, where a bad data
// directory is an operational error, not a programming one.
func OpenHKDemoEngine(opts EngineOptions) (*Engine, error) {
	return newFromDataset(dataset.HKHotels(), opts)
}

// LoadEngine reads a dataset file (.json or .csv, as written by the
// yaskgen tool) and indexes it.
func LoadEngine(path string) (*Engine, error) {
	return LoadEngineWith(path, EngineOptions{})
}

// LoadEngineWith is LoadEngine with explicit engine options.
func LoadEngineWith(path string, opts EngineOptions) (*Engine, error) {
	ds, err := dataset.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if ds.Objects.Len() == 0 {
		return nil, fmt.Errorf("yask: dataset %q is empty", path)
	}
	return newFromDataset(ds, opts)
}

// Len returns the size of the engine's ID space: live objects plus
// removed (tombstoned) ones, whose IDs stay addressable.
func (e *Engine) Len() int { return e.core.Collection().Len() }

// LiveLen returns the number of live (not removed) objects.
func (e *Engine) LiveLen() int { return e.core.Collection().LiveLen() }

// Insert adds a new object to the running engine and returns its
// assigned ID. The object becomes visible to queries at the next
// snapshot refresh — immediately under the default construction, after
// at most Options.RefreshEvery mutations when batching is configured.
// Concurrent queries are never disturbed: they keep reading the last
// complete snapshot until the new one is atomically published.
func (e *Engine) Insert(o Object) (ObjectID, error) {
	doc := e.vocab.InternSet(o.Keywords...)
	if doc.Empty() {
		return 0, fmt.Errorf("yask: object %q has no keywords", o.Name)
	}
	id, err := e.core.Insert(object.Object{
		Name: o.Name,
		Loc:  geo.Point{X: o.X, Y: o.Y},
		Doc:  doc,
	})
	if err != nil {
		return 0, err
	}
	return uint32(id), nil
}

// Remove deletes the object from the running engine. The ID remains
// known (old sessions referencing it keep resolving) but the object
// stops appearing in results at the next snapshot refresh.
func (e *Engine) Remove(id ObjectID) error {
	return e.core.Remove(object.ID(id))
}

// Refresh forces a snapshot refresh, publishing any mutations still
// buffered by Options.RefreshEvery batching.
func (e *Engine) Refresh() { e.core.Refresh() }

// Checkpoint forces a durable snapshot of the whole collection and
// retires the WAL segments it covers, independent of the automatic
// EngineOptions.CheckpointEvery trigger. It returns an error wrapping
// ErrNotDurable on a memory-only engine.
func (e *Engine) Checkpoint() error { return e.core.Checkpoint() }

// Close releases the engine's durability resources: it flushes and
// closes the write-ahead log, after which Insert and Remove fail.
// Queries keep working on the last published snapshot. Close is
// idempotent and a no-op for memory-only engines.
func (e *Engine) Close() error { return e.core.Close() }

// Object returns the indexed object with the given ID, including
// removed ones (check with Objects for the live set).
func (e *Engine) Object(id ObjectID) (Object, error) {
	if int(id) >= e.Len() {
		return Object{}, fmt.Errorf("yask: unknown object ID %d", id)
	}
	o := e.core.Collection().Get(object.ID(id))
	return Object{
		Name:     o.Name,
		X:        o.Loc.X,
		Y:        o.Loc.Y,
		Keywords: e.vocab.Words(o.Doc),
	}, nil
}

// Objects returns all live indexed objects with their IDs, in ID order.
func (e *Engine) Objects() []Result {
	coll := e.core.Collection()
	all := coll.All()
	out := make([]Result, 0, coll.LiveLen())
	for _, o := range all {
		if !coll.Alive(o.ID) {
			continue
		}
		out = append(out, Result{
			ID: uint32(o.ID), Name: o.Name, X: o.Loc.X, Y: o.Loc.Y,
			Keywords: e.vocab.Words(o.Doc),
		})
	}
	return out
}

// buildQuery converts and validates a public query. Keywords unknown to
// the engine's vocabulary are still interned — they simply match no
// object, exactly as a user typing a novel word experiences.
func (e *Engine) buildQuery(q Query) (score.Query, error) {
	wt := q.Wt
	if wt == 0 {
		wt = 0.5
	}
	var sim score.TextSim
	switch q.Similarity {
	case "", "jaccard":
		sim = score.SimJaccard
	case "dice":
		sim = score.SimDice
	default:
		return score.Query{}, fmt.Errorf("yask: unknown similarity model %q (want jaccard or dice)", q.Similarity)
	}
	sq := score.Query{
		Loc: geo.Point{X: q.X, Y: q.Y},
		Doc: e.vocab.InternSet(q.Keywords...),
		K:   q.K,
		W:   score.WeightsFromWt(wt),
		Sim: sim,
	}
	if err := sq.Validate(); err != nil {
		return score.Query{}, err
	}
	return sq, nil
}

func (e *Engine) publicQuery(sq score.Query) Query {
	sim := ""
	if sq.Sim == score.SimDice {
		sim = "dice"
	}
	return Query{
		X: sq.Loc.X, Y: sq.Loc.Y,
		Keywords:   e.vocab.Words(sq.Doc),
		K:          sq.K,
		Wt:         sq.W.Wt,
		Similarity: sim,
	}
}

// TopK answers a spatial keyword top-k query.
func (e *Engine) TopK(q Query) ([]Result, error) {
	return e.TopKCtx(context.Background(), q)
}

// TopKCtx is TopK under a context: the index search polls the
// context's cancellation signal every bounded number of node visits,
// so a canceled or deadline-expired query returns ctx.Err() promptly
// instead of running to completion. Serving layers derive per-request
// deadlines and pass them here.
func (e *Engine) TopKCtx(ctx context.Context, q Query) ([]Result, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	res, err := e.core.TopKCtx(ctx, sq)
	if err != nil {
		return nil, err
	}
	s := score.NewScorer(sq, e.core.Collection())
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{
			ID: uint32(r.Obj.ID), Name: r.Obj.Name,
			X: r.Obj.Loc.X, Y: r.Obj.Loc.Y,
			Score: r.Score, SDist: s.SDist(r.Obj), TSim: s.TSim(r.Obj),
			Keywords: e.vocab.Words(r.Obj.Doc),
		}
	}
	return out, nil
}

// TopKBatch answers many top-k queries concurrently over a bounded
// worker pool (workers ≤ 0 selects GOMAXPROCS) and returns one result
// slice per query, index-aligned with queries. The batch fails as a
// whole if any query is invalid. Heavy-traffic callers should prefer it
// over a TopK loop: queries share per-worker traversal scratch and the
// pool bounds concurrency no matter how large the batch is.
func (e *Engine) TopKBatch(queries []Query, workers int) ([][]Result, error) {
	return e.TopKBatchCtx(context.Background(), queries, workers)
}

// TopKBatchCtx is TopKBatch under a context: one cancellation signal
// covers every work unit of the batch, so an expired deadline stops
// in-flight traversals and keeps queued units from starting. A
// canceled batch fails wholesale with ctx.Err().
func (e *Engine) TopKBatchCtx(ctx context.Context, queries []Query, workers int) ([][]Result, error) {
	sqs := make([]score.Query, len(queries))
	for i, q := range queries {
		sq, err := e.buildQuery(q)
		if err != nil {
			return nil, fmt.Errorf("yask: batch query %d: %w", i, err)
		}
		sqs[i] = sq
	}
	opts := core.BatchOptions{Workers: workers}
	batches, err := e.core.TopKBatchCtx(ctx, sqs, opts)
	if err != nil {
		return nil, err
	}
	// Converting to the public form (keyword materialization, score
	// components) is itself per-query work; fan it over the same pool so
	// it doesn't become a serial tail after the parallel query phase.
	out := make([][]Result, len(batches))
	core.RunBatch(len(batches), opts.Workers, func(i int) {
		res := batches[i]
		s := score.NewScorer(sqs[i], e.core.Collection())
		rs := make([]Result, len(res))
		for j, r := range res {
			rs[j] = Result{
				ID: uint32(r.Obj.ID), Name: r.Obj.Name,
				X: r.Obj.Loc.X, Y: r.Obj.Loc.Y,
				Score: r.Score, SDist: s.SDist(r.Obj), TSim: s.TSim(r.Obj),
				Keywords: e.vocab.Words(r.Obj.Doc),
			}
		}
		out[i] = rs
	})
	return out, nil
}

// SubscriptionUpdate is one pushed continuous-query result: the new
// top-k of a subscribed query and the engine epoch it was computed at.
type SubscriptionUpdate struct {
	// Epoch identifies the published snapshot behind Results; it
	// strictly increases across the updates of one subscription.
	Epoch   uint64   `json:"epoch"`
	Results []Result `json:"results"`
}

// Subscription is a registered continuous top-k query. Receive pushed
// results from Updates; the channel closes when the subscription is
// cancelled with Close or force-dropped because the receiver fell too
// far behind (slow-client disconnect).
type Subscription struct {
	sub     *core.Subscription
	updates chan SubscriptionUpdate
}

// Updates returns the subscription's update channel. The initial
// result arrives as the first update.
func (s *Subscription) Updates() <-chan SubscriptionUpdate { return s.updates }

// Close cancels the subscription; idempotent.
func (s *Subscription) Close() { s.sub.Close() }

// Subscribe registers q as a continuous top-k query: the engine
// computes the initial result immediately and thereafter re-evaluates
// the query after each published mutation batch whose delta could have
// changed the answer (a signature-and-distance prefilter skips the
// rest), pushing an update whenever the result actually changes.
// buffer bounds undelivered updates (≤ 0 selects the default 8); a
// subscriber that falls behind is disconnected rather than allowed to
// stall the engine.
func (e *Engine) Subscribe(q Query, buffer int) (*Subscription, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	cs, err := e.core.Subscribe(sq, core.SubscribeOptions{Buffer: buffer})
	if err != nil {
		return nil, err
	}
	if buffer <= 0 {
		buffer = core.DefaultSubscribeBuffer
	}
	s := &Subscription{sub: cs, updates: make(chan SubscriptionUpdate, buffer)}
	// The forwarder converts internal updates to the public form. It
	// never blocks on the public channel: a full buffer means the
	// consumer fell behind, and the subscription is dropped exactly as
	// the core layer drops its own slow clients — so a stalled consumer
	// can neither stall the engine nor leak this goroutine.
	go func() {
		defer close(s.updates)
		for u := range cs.Updates() {
			sc := score.NewScorer(sq, e.core.Collection())
			pu := SubscriptionUpdate{Epoch: u.Epoch, Results: make([]Result, len(u.Results))}
			for i, r := range u.Results {
				pu.Results[i] = Result{
					ID: uint32(r.Obj.ID), Name: r.Obj.Name,
					X: r.Obj.Loc.X, Y: r.Obj.Loc.Y,
					Score: r.Score, SDist: sc.SDist(r.Obj), TSim: sc.TSim(r.Obj),
					Keywords: e.vocab.Words(r.Obj.Doc),
				}
			}
			select {
			case s.updates <- pu:
			default:
				cs.Close()
				return
			}
		}
	}()
	return s, nil
}

// WhyNotKeywordsJob is one keyword-adaption why-not question of a
// WhyNotKeywordsBatch call.
type WhyNotKeywordsJob struct {
	Query   Query
	Missing []ObjectID
}

// WhyNotKeywordsBatch answers many keyword-adapted why-not questions
// concurrently (workers ≤ 0 selects GOMAXPROCS). Refinements and errors
// are index-aligned with jobs; a job that fails — a malformed query, or
// a "missing" object that is already in the result — reports its error
// without failing the rest of the batch.
func (e *Engine) WhyNotKeywordsBatch(jobs []WhyNotKeywordsJob, opts RefineOptions, workers int) ([]*KeywordRefinement, []error) {
	coreJobs := make([]core.KeywordJob, len(jobs))
	errs := make([]error, len(jobs))
	valid := make([]bool, len(jobs))
	for i, j := range jobs {
		sq, err := e.buildQuery(j.Query)
		if err != nil {
			errs[i] = err
			continue
		}
		coreJobs[i] = core.KeywordJob{Query: sq, Missing: toInternalIDs(j.Missing)}
		valid[i] = true
	}
	// Run only the well-formed jobs; invalid ones already carry errors.
	idx := make([]int, 0, len(jobs))
	run := make([]core.KeywordJob, 0, len(jobs))
	for i, ok := range valid {
		if ok {
			idx = append(idx, i)
			run = append(run, coreJobs[i])
		}
	}
	results, runErrs := e.core.AdaptKeywordsBatch(run, core.KeywordOptions{Lambda: opts.lambda()}, core.BatchOptions{Workers: workers})
	out := make([]*KeywordRefinement, len(jobs))
	for n, i := range idx {
		if runErrs[n] != nil {
			errs[i] = runErrs[n]
			continue
		}
		res := results[n]
		out[i] = &KeywordRefinement{
			Keywords: e.vocab.Words(res.Refined.Doc),
			K:        res.Refined.K,
			Added:    e.vocab.Words(res.Added),
			Removed:  e.vocab.Words(res.Removed),
			Penalty:  res.Penalty, DeltaK: res.DeltaK, DeltaDoc: res.DeltaDoc,
			RankBefore: res.RankBefore, RankAfter: res.RankAfter,
			Query: e.publicQuery(res.Refined),
		}
	}
	return out, errs
}

func toInternalIDs(missing []ObjectID) []object.ID {
	ids := make([]object.ID, len(missing))
	for i, m := range missing {
		ids[i] = object.ID(m)
	}
	return ids
}

// Explain asks why the given objects are missing from the query's
// result and returns one explanation per object.
func (e *Engine) Explain(q Query, missing []ObjectID) ([]Explanation, error) {
	return e.ExplainCtx(context.Background(), q, missing)
}

// ExplainCtx is Explain under a context; see TopKCtx for the
// cancellation contract.
func (e *Engine) ExplainCtx(ctx context.Context, q Query, missing []ObjectID) ([]Explanation, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	exps, err := e.core.ExplainCtx(ctx, sq, toInternalIDs(missing))
	if err != nil {
		return nil, err
	}
	out := make([]Explanation, len(exps))
	for i, ex := range exps {
		out[i] = Explanation{
			ID: uint32(ex.Missing.ID), Name: ex.Missing.Name,
			Rank: ex.Rank, Score: ex.Score, SDist: ex.SDist, TSim: ex.TSim,
			Reason: ex.Reason.String(), Detail: ex.Detail,
			SuggestPreference: ex.SuggestPreference,
			SuggestKeyword:    ex.SuggestKeyword,
		}
	}
	return out, nil
}

// WhyNotPreference answers the preference-adjusted why-not question: it
// returns the minimum-penalty refined query (adjusted weights, possibly
// enlarged k) whose result contains every missing object.
func (e *Engine) WhyNotPreference(q Query, missing []ObjectID, opts RefineOptions) (*PreferenceRefinement, error) {
	return e.WhyNotPreferenceCtx(context.Background(), q, missing, opts)
}

// WhyNotPreferenceCtx is WhyNotPreference under a context; see TopKCtx
// for the cancellation contract.
func (e *Engine) WhyNotPreferenceCtx(ctx context.Context, q Query, missing []ObjectID, opts RefineOptions) (*PreferenceRefinement, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	res, err := e.core.AdjustPreferenceCtx(ctx, sq, toInternalIDs(missing), core.PreferenceOptions{Lambda: opts.lambda()})
	if err != nil {
		return nil, err
	}
	return &PreferenceRefinement{
		Ws: res.Refined.W.Ws, Wt: res.Refined.W.Wt, K: res.Refined.K,
		Penalty: res.Penalty, DeltaK: res.DeltaK, DeltaW: res.DeltaW,
		RankBefore: res.RankBefore, RankAfter: res.RankAfter,
		Query: e.publicQuery(res.Refined),
	}, nil
}

// WhyNotKeywords answers the keyword-adapted why-not question: it
// returns the minimum-penalty refined query (edited keyword set,
// possibly enlarged k) whose result contains every missing object.
func (e *Engine) WhyNotKeywords(q Query, missing []ObjectID, opts RefineOptions) (*KeywordRefinement, error) {
	return e.WhyNotKeywordsCtx(context.Background(), q, missing, opts)
}

// WhyNotKeywordsCtx is WhyNotKeywords under a context; see TopKCtx for
// the cancellation contract.
func (e *Engine) WhyNotKeywordsCtx(ctx context.Context, q Query, missing []ObjectID, opts RefineOptions) (*KeywordRefinement, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return nil, err
	}
	res, err := e.core.AdaptKeywordsCtx(ctx, sq, toInternalIDs(missing), core.KeywordOptions{Lambda: opts.lambda()})
	if err != nil {
		return nil, err
	}
	return &KeywordRefinement{
		Keywords: e.vocab.Words(res.Refined.Doc),
		K:        res.Refined.K,
		Added:    e.vocab.Words(res.Added),
		Removed:  e.vocab.Words(res.Removed),
		Penalty:  res.Penalty, DeltaK: res.DeltaK, DeltaDoc: res.DeltaDoc,
		RankBefore: res.RankBefore, RankAfter: res.RankAfter,
		Query: e.publicQuery(res.Refined),
	}, nil
}

// Rank returns the true rank of an object under the query — the number
// the explanation panel of the demo UI reports.
func (e *Engine) Rank(q Query, id ObjectID) (int, error) {
	return e.RankCtx(context.Background(), q, id)
}

// RankCtx is Rank under a context; see TopKCtx for the cancellation
// contract.
func (e *Engine) RankCtx(ctx context.Context, q Query, id ObjectID) (int, error) {
	sq, err := e.buildQuery(q)
	if err != nil {
		return 0, err
	}
	if int(id) >= e.Len() {
		return 0, fmt.Errorf("yask: unknown object ID %d", id)
	}
	if !e.core.Collection().Alive(object.ID(id)) {
		return 0, fmt.Errorf("yask: object %d has been removed", id)
	}
	return e.core.RankCtx(ctx, sq, object.ID(id))
}

// ShardStats is the engine's index statistics row.
type ShardStats struct {
	// Objects is the ID-space size; Live the number of live (not
	// removed) objects in it.
	Objects int `json:"objects"`
	Live    int `json:"live"`
	// SetNodeAccesses and KcNodeAccesses are the cumulative index node
	// accesses of the SetR- and KcR-trees.
	SetNodeAccesses int64 `json:"setNodeAccesses"`
	KcNodeAccesses  int64 `json:"kcNodeAccesses"`
	// SetSigProbes/SetSigHits and KcSigProbes/KcSigHits are the
	// keyword-signature pruning counters per index family: probes are
	// signature bounds consulted, hits the decisive ones (each an exact
	// keyword set operation skipped).
	SetSigProbes int64 `json:"setSigProbes"`
	SetSigHits   int64 `json:"setSigHits"`
	KcSigProbes  int64 `json:"kcSigProbes"`
	KcSigHits    int64 `json:"kcSigHits"`
}

// EngineStats is the engine's execution snapshot: collection size,
// buffered mutations, and index statistics.
type EngineStats struct {
	Objects          int     `json:"objects"`
	Live             int     `json:"live"`
	PendingMutations int     `json:"pendingMutations"`
	MaxDist          float64 `json:"maxDist"`
	// Signatures reports whether the keyword-signature pruning layer is
	// active; SigProbes/SigHits aggregate the per-family counters and
	// SigHitRate is hits/probes — the fraction of textual evaluations
	// answered by a constant-time bitmap bound instead of an exact
	// keyword merge-walk.
	Signatures bool    `json:"signatures"`
	SigProbes  int64   `json:"sigProbes"`
	SigHits    int64   `json:"sigHits"`
	SigHitRate float64 `json:"sigHitRate"`
	// PerShard is a one-row array of index counters. It keeps the name
	// and shape it had when the engine could be partitioned, because
	// the served-path benchmark reads GET /api/stats' perShard[0].
	PerShard []ShardStats `json:"perShard"`
	// Cache reports the epoch-keyed result cache; nil when the engine was
	// built with DisableCache.
	Cache *CacheStats `json:"cache,omitempty"`
	// Subscriptions reports the continuous-query counters.
	Subscriptions *SubscriptionStats `json:"subscriptions,omitempty"`
	// Durability reports the write-ahead log and checkpoint state of a
	// durable engine; nil when the engine is memory-only.
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// CacheStats is the result-cache section of EngineStats.
type CacheStats struct {
	// Entries and Bytes size the cache's current contents.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count lookups; HitRate is Hits / (Hits + Misses),
	// 0 before any lookup.
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hitRate"`
	// Evictions counts LRU evictions under the entry/byte bounds;
	// OrphanedEpochs counts epochs that still held entries when a
	// publish-triggered purge dropped them.
	Evictions      int64 `json:"evictions"`
	OrphanedEpochs int64 `json:"orphanedEpochs"`
}

// SubscriptionStats is the continuous-query section of EngineStats.
type SubscriptionStats struct {
	// Active is the number of live subscriptions.
	Active int `json:"active"`
	// Reevaluated counts full top-k re-evaluations across all published
	// epochs; SigSkipped counts the ones the mutation-delta signature
	// prefilter proved unnecessary.
	Reevaluated int64 `json:"reevaluated"`
	SigSkipped  int64 `json:"sigSkipped"`
	// Pushed counts updates actually delivered (changed results);
	// Dropped counts slow-client force-disconnects.
	Pushed  int64 `json:"pushed"`
	Dropped int64 `json:"dropped"`
}

// DurabilityStats is the durability section of EngineStats.
type DurabilityStats struct {
	// Dir is the data directory; Fsync the acknowledgement policy
	// ("always", "interval", "none").
	Dir   string `json:"dir"`
	Fsync string `json:"fsync"`
	// WalAppends, WalFsyncs, and WalRotations count log records written,
	// fsync calls issued, and segment rotations since boot.
	WalAppends   int64 `json:"walAppends"`
	WalFsyncs    int64 `json:"walFsyncs"`
	WalRotations int64 `json:"walRotations"`
	// Segments and WalBytes size the live log: segment files on disk and
	// their total bytes.
	Segments int   `json:"segments"`
	WalBytes int64 `json:"walBytes"`
	// LastLSN is the newest logged mutation; LastCheckpoint the LSN the
	// newest checkpoint covers; SinceCheckpoint the mutations logged
	// since then; Checkpoints the checkpoints written since boot.
	LastLSN         uint64 `json:"lastLSN"`
	LastCheckpoint  uint64 `json:"lastCheckpoint"`
	SinceCheckpoint int    `json:"sinceCheckpoint"`
	Checkpoints     int64  `json:"checkpoints"`
	// ReplayedRecords is the number of WAL records replayed at boot.
	ReplayedRecords int `json:"replayedRecords"`
	// Arena reports the mmap arena persistence state; nil unless
	// MmapArenas is on (or a boot attempted and declined to map).
	Arena *ArenaStats `json:"arena,omitempty"`
}

// ArenaStats is the arena subsection of DurabilityStats: the state of
// the mmap index-arena persistence layer (EngineOptions.MmapArenas).
// See docs/FORMATS.md for the on-disk format.
type ArenaStats struct {
	// Enabled reports whether this engine writes arena files at
	// checkpoints and tries to map them at boot.
	Enabled bool `json:"enabled"`
	// MmapBoot reports whether this boot mapped arena files;
	// RebuildSkipped additionally requires that no WAL records had to be
	// replayed on top, i.e. the index rebuild was skipped entirely.
	MmapBoot       bool `json:"mmapBoot"`
	RebuildSkipped bool `json:"rebuildSkipped"`
	// MappedNow counts index families currently serving a mapped arena
	// (drops to 0 after the first post-boot mutation thaws them).
	MappedNow int `json:"mappedNow"`
	// FallbackReason records why a boot declined to map (empty when it
	// mapped, or when no attempt was made).
	FallbackReason string `json:"fallbackReason,omitempty"`
	// SetsWritten and BytesWritten count arena sets and bytes written by
	// checkpoints since boot; LastWriteError records the most recent
	// (non-fatal) arena write failure.
	SetsWritten    int64  `json:"setsWritten"`
	BytesWritten   int64  `json:"bytesWritten"`
	LastWriteError string `json:"lastWriteError,omitempty"`
}

// Stats reports the engine's execution statistics.
func (e *Engine) Stats() EngineStats {
	st := e.core.Stats()
	out := EngineStats{
		Objects:          st.Objects,
		Live:             st.Live,
		PendingMutations: st.Pending,
		MaxDist:          st.MaxDist,
		Signatures:       st.Signatures,
		SigProbes:        st.SigProbes,
		SigHits:          st.SigHits,
		SigHitRate:       st.SigHitRate,
		PerShard:         make([]ShardStats, len(st.PerShard)),
	}
	for i, sh := range st.PerShard {
		out.PerShard[i] = ShardStats{
			Objects: sh.Objects, Live: sh.Live,
			SetNodeAccesses: sh.SetNodeAccesses, KcNodeAccesses: sh.KcNodeAccesses,
			SetSigProbes: sh.SetSigProbes, SetSigHits: sh.SetSigHits,
			KcSigProbes: sh.KcSigProbes, KcSigHits: sh.KcSigHits,
		}
	}
	if c := st.Cache; c != nil {
		out.Cache = &CacheStats{
			Entries: c.Entries, Bytes: c.Bytes,
			Hits: c.Hits, Misses: c.Misses, HitRate: c.HitRate,
			Evictions: c.Evictions, OrphanedEpochs: c.OrphanedEpochs,
		}
	}
	if s := st.Subscriptions; s != nil {
		out.Subscriptions = &SubscriptionStats{
			Active: s.Active, Reevaluated: s.Reevaluated,
			SigSkipped: s.SigSkipped, Pushed: s.Pushed, Dropped: s.Dropped,
		}
	}
	if d := st.Durability; d != nil {
		out.Durability = &DurabilityStats{
			Dir: d.Dir, Fsync: d.Fsync,
			WalAppends: d.WalAppends, WalFsyncs: d.WalFsyncs, WalRotations: d.WalRotations,
			Segments: d.Segments, WalBytes: d.WalBytes,
			LastLSN: d.LastLSN, LastCheckpoint: d.LastCheckpoint,
			SinceCheckpoint: d.SinceCheckpoint, Checkpoints: d.Checkpoints,
			ReplayedRecords: d.ReplayedRecords,
		}
		if a := d.Arena; a != nil {
			out.Durability.Arena = &ArenaStats{
				Enabled: a.Enabled, MmapBoot: a.MmapBoot,
				RebuildSkipped: a.RebuildSkipped, MappedNow: a.MappedNow,
				FallbackReason: a.FallbackReason,
				SetsWritten:    a.SetsWritten, BytesWritten: a.BytesWritten,
				LastWriteError: a.LastWriteError,
			}
		}
	}
	return out
}

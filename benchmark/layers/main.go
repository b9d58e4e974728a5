// Command layers is the benchmark's traced run: it builds the served
// stack in-process — the dataset a yaskd would load, a yask.Engine
// behind a server.Server, a core.Engine, and a SetR-/KcR-tree pair
// behind index.Provider — and replays a fixed prefix of the seeded op
// streams once per depth, timing only calls into each layer's public
// functions. A layer's self time on an op is its span minus the span of
// the layer it calls, taken on the same op at the next depth.
//
// Every traced run times every layer, whatever the workload: the
// queries come from the workload's own stream (topk-zipf replays its
// Zipf draws, repeats included, on a cache its warm-up draws have
// filled; the others replay distinct queries, all misses), the why-not
// sessions and the inserts from the seed's session and ingest streams.
// The timings are therefore unit costs on this seed's data; whether a
// workload pays them at all is what the served run's counters (in the
// parent package) say.
//
// The end-to-end driver runs this binary for -trace 1; by hand:
//
//	go run ./benchmark/layers -workload whynot-keyword -seed 1
//
// It goes through index.Builder / index.Provider / index.Snapshot,
// core.NewEngine / core.Open, yask.*, server.New, qcache, wal,
// admission and object only — never core.Engine.SetIndex/KcIndex — so a
// refactor that keeps those contracts keeps this file compiling.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/yask-engine/yask"
	"github.com/yask-engine/yask/benchmark/workload"
	"github.com/yask-engine/yask/internal/admission"
	"github.com/yask-engine/yask/internal/core"
	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/geo"
	"github.com/yask-engine/yask/internal/index"
	"github.com/yask-engine/yask/internal/kcrtree"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/qcache"
	"github.com/yask-engine/yask/internal/rtree"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/server"
	"github.com/yask-engine/yask/internal/settree"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// span is one timed call into a layer. Spans of one request share
// Stream and Op; Parent is the layer the call was made on behalf of.
type span struct {
	Stream string `json:"stream"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Call   string `json:"call"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// time runs f as one span and returns its duration in microseconds.
func (t *tracer) time(stream string, op int, layer, call, parent string, f func()) float64 {
	s := time.Now()
	f()
	e := time.Now()
	t.spans = append(t.spans, span{stream, op, layer, call, parent, s.Sub(t.t0).Nanoseconds(), e.Sub(t.t0).Nanoseconds()})
	return float64(e.Sub(s).Nanoseconds()) / 1e3
}

func main() {
	name := flag.String("workload", workload.TopKCold, "workload whose query stream and server flags to replay")
	seed := flag.Int64("seed", 1, "seed of the op streams (the dataset is the same for all seeds)")
	n := flag.Int("n", workload.DefaultN, "dataset size; the driver's smoke test passes a small one")
	data := flag.String("data", "", "dataset JSON the driver already wrote; empty writes one under -dir")
	dir := flag.String("dir", "", "scratch directory for the dataset and WAL files; empty makes a temporary one")
	out := flag.String("out", "", "write the spans here as JSON; empty skips the file")
	flag.Parse()
	if err := run(*name, *seed, *n, *data, *dir, *out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(2)
	}
}

// noAutoRefresh is the RefreshEvery the replay's engines are built with.
// yaskd re-freezes both index arenas after every mutation (~25 ms at
// n = 100k), and under that an insert's span is the refresh plus noise:
// the microseconds the outer layers add cannot be told from run-to-run
// jitter of the freeze. So the replay's inserts only buffer — log,
// append, insert into the trees — and the refresh they would have
// triggered is timed by itself (core.refresh_ms_p50 and the two
// *.refresh_ms_p50). An insert as served costs the two together.
const noAutoRefresh = 1 << 30

// replay is the state of one traced run.
type replay struct {
	tr      *tracer
	name    string
	durable bool
	dir     string
	data    string
	metrics map[string]workload.Metric

	ds       *dataset.Dataset // as a yaskd loads it: what the core and index depths run on
	queries  []workload.Query
	prewarm  []workload.Query // topk-zipf's warm-up draws, played untimed before each depth
	sessions []workload.Session
	inserts  []workload.Insert // four slices of equal length, one per depth
	victims  []uint32

	// Spans in µs, index-aligned by op across depths.
	q, explain, pref, kw, ins map[string][]float64
	// What each keyword adaption did at the core depth: candidates
	// generated and evaluated.
	kwGen, kwEval []float64
}

func run(name string, seed int64, n int, data, dir, out string) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "yask-layers-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	r := &replay{
		tr: &tracer{t0: time.Now()}, name: name, durable: name == workload.IngestDurable,
		dir: dir, data: data, metrics: map[string]workload.Metric{},
		q: map[string][]float64{}, explain: map[string][]float64{}, pref: map[string][]float64{},
		kw: map[string][]float64{}, ins: map[string][]float64{},
	}
	if err := r.generate(seed, n); err != nil {
		return err
	}
	if err := r.servedDepths(); err != nil {
		return err
	}
	if err := r.coreDepth(); err != nil {
		return err
	}
	if err := r.indexDepth(); err != nil {
		return err
	}
	if err := r.walPrimitives(); err != nil {
		return err
	}
	r.admission()
	r.summarise()
	if out != "" {
		raw, err := json.Marshal(r.tr.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("%d spans written to %s\n", len(r.tr.spans), out)
	}
	line, err := json.Marshal(r.metrics)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func (r *replay) set(name string, v float64, unit string) {
	r.metrics[name] = workload.Metric{Value: v, Unit: unit}
}

// generate draws the replay's inputs from the seed with the driver's own
// generator: workload.ReplayQueries of the workload's query stream past
// its warm-up, plus ReplaySessions why-not sessions and ReplayInserts
// inserts per depth. The query and ingest streams are drawn
// sequentially, so these short ones are prefixes of the driver's.
func (r *replay) generate(seed int64, n int) error {
	const nq, ns, ni = workload.ReplayQueries, workload.ReplaySessions, workload.ReplayInserts
	gen, err := workload.Dataset(n)
	if err != nil {
		return err
	}
	if r.data == "" {
		var buf bytes.Buffer
		if err := gen.WriteJSON(&buf); err != nil {
			return err
		}
		r.data = filepath.Join(r.dir, "data.json")
		if err := os.WriteFile(r.data, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	small := func(name string, per int) (*workload.Plan, error) {
		return workload.New(name, gen, seed, 1, workload.Sizes{
			ColdPerSecond: per, ReaderPerSecond: per, MutationPerSecond: per,
			SessionsPerSecond: map[string]int{name: per},
		})
	}
	queryStream := r.name
	if queryStream == workload.WhyNotPreference || queryStream == workload.WhyNotKeyword {
		// A why-not workload's only top-k queries open its sessions, and
		// those are distinct: the same kind of stream topk-cold sends.
		queryStream = workload.TopKCold
	}
	own, err := small(queryStream, nq)
	if err != nil {
		return err
	}
	draws := own.Draws[own.WarmDraws:]
	if queryStream == workload.TopKZipf {
		// The served cache has seen the warm-up draws when the window
		// opens; each depth plays them, untimed, before its timed draws,
		// so the replay hits and misses where the served run does.
		for _, at := range own.Draws[:own.WarmDraws] {
			r.prewarm = append(r.prewarm, own.Pool[at])
		}
	} else {
		// topk-cold's queries are distinct already; ingest-durable's reader
		// has the cache orphaned under it every few requests, so a repeat
		// is a miss there and the replay sends none.
		draws = distinct(draws)
	}
	if len(draws) > nq {
		draws = draws[:nq]
	}
	for _, at := range draws {
		r.queries = append(r.queries, own.Pool[at])
	}
	// The two why-not workloads draw the same base queries and ranks and
	// differ only in how many missing objects they keep, so the
	// preference workload's sessions serve both: see kwMissing.
	sess, err := small(workload.WhyNotPreference, ns)
	if err != nil {
		return err
	}
	r.sessions = sess.Sessions[sess.WarmSessions:]
	if len(r.sessions) > ns {
		r.sessions = r.sessions[:ns]
	}
	// Each depth inserts objects of its own: re-inserting one an engine
	// already holds was measured at half the cost of a first insert.
	ing, err := small(workload.IngestDurable, 8*ni)
	if err != nil {
		return err
	}
	for _, m := range ing.Mutations {
		switch {
		case m.Insert != nil && len(r.inserts) < 4*ni:
			r.inserts = append(r.inserts, *m.Insert)
		case m.Insert == nil && len(r.victims) < ni:
			r.victims = append(r.victims, m.Delete)
		}
	}
	if len(r.inserts) < 4*ni {
		return fmt.Errorf("ingest stream too short: %d inserts for 4×%d", len(r.inserts), ni)
	}

	start := time.Now()
	if r.ds, err = dataset.LoadFile(r.data); err != nil {
		return err
	}
	r.set("dataset.load_ms", ms(time.Since(start)), "ms")
	return nil
}

// kwMissing is the part of a replayed session's missing set the
// whynot-keyword workload would ask about: its first object.
func kwMissing(s workload.Session) []uint32 { return s.Missing[:1] }

// distinct drops every repeat from draws, keeping first occurrences.
func distinct(draws []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, at := range draws {
		if !seen[at] {
			seen[at] = true
			out = append(out, at)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// depthInserts is the slice of the insert stream one depth replays.
func (r *replay) depthInserts(depth int) []workload.Insert {
	per := len(r.inserts) / 4
	return r.inserts[depth*per : (depth+1)*per]
}

// scoreQuery converts a wire query to the engine's form over the loaded
// dataset's vocabulary, with the server's defaults.
func (r *replay) scoreQuery(q workload.Query) score.Query {
	return score.Query{
		Loc: geo.Point{X: q.X, Y: q.Y},
		Doc: r.ds.Vocab.InternSet(q.Keywords...),
		K:   q.K,
		W:   score.WeightsFromWt(0.5),
	}
}

func objectIDs(ids []uint32) []object.ID {
	out := make([]object.ID, len(ids))
	for i, id := range ids {
		out[i] = object.ID(id)
	}
	return out
}

// servedDepths replays at the two outer depths — server.ServeHTTP on a
// response recorder, then the yask.Engine call it makes — on one engine
// configured as the workload's yaskd is. Between passes the engine is
// refreshed: a new epoch orphans the result cache, so each depth meets
// the same cold-then-repeating cache the other did.
func (r *replay) servedDepths() error {
	opts := yask.EngineOptions{RefreshEvery: noAutoRefresh}
	cfg := server.Config{QueryTimeout: 30 * time.Second}
	if r.durable {
		opts.DataDir, opts.Fsync, opts.CheckpointEvery = filepath.Join(r.dir, "wal-served"), "always", workload.CheckpointEvery
	}
	if r.name == workload.TopKZipf {
		cfg.MaxInflight, cfg.QueueDepth, cfg.QueueWait = workload.ZipfMaxInflight, workload.ZipfQueueDepth, workload.ZipfQueueWait
		opts.CacheEntries = workload.ZipfCache
	}
	eng, err := yask.LoadEngineWith(r.data, opts)
	if err != nil {
		return err
	}
	defer eng.Close()
	srv := server.New(eng, cfg)
	ctx := context.Background()

	post := func(path string, v any) *http.Request {
		body, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs of strings and numbers always marshal
		}
		return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	}
	serve := func(stream string, op int, call string, req *http.Request) (*httptest.ResponseRecorder, float64, error) {
		rec := httptest.NewRecorder()
		us := r.tr.time(stream, op, "server", call, "", func() { srv.ServeHTTP(rec, req) })
		if rec.Code/100 != 2 {
			return nil, 0, fmt.Errorf("server %s: status %d: %s", call, rec.Code, rec.Body)
		}
		return rec, us, nil
	}

	// Queries. The cache is warmed through the engine, not the handler:
	// a handled query also stores a session, and thousands of those slow
	// every later /api/query down (README, Findings).
	toYask := func(q workload.Query) yask.Query {
		return yask.Query{X: q.X, Y: q.Y, Keywords: q.Keywords, K: q.K}
	}
	warm := func() error {
		for _, q := range r.prewarm {
			if _, err := eng.TopKCtx(ctx, toYask(q)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := warm(); err != nil {
		return err
	}
	for i, q := range r.queries {
		_, us, err := serve("query", i, "query", post("/api/query", q))
		if err != nil {
			return err
		}
		r.q["server"] = append(r.q["server"], us)
	}
	eng.Refresh()
	if err := warm(); err != nil {
		return err
	}
	for i, q := range r.queries {
		var err error
		us := r.tr.time("query", i, "yask", "TopKCtx", "server", func() { _, err = eng.TopKCtx(ctx, toYask(q)) })
		if err != nil {
			return err
		}
		r.q["yask"] = append(r.q["yask"], us)
	}

	// Why-not sessions: explain, then both refinement models.
	eng.Refresh()
	type follow struct {
		SessionID string   `json:"sessionId"`
		Missing   []uint32 `json:"missing"`
		Model     string   `json:"model,omitempty"`
		Lambda    float64  `json:"lambda,omitempty"`
	}
	for i, s := range r.sessions {
		rec, _, err := serve("session", i, "query", post("/api/query", s.Query))
		if err != nil {
			return err
		}
		var rep struct {
			SessionID string `json:"sessionId"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			return err
		}
		for _, step := range []struct {
			into  map[string][]float64
			path  string
			model string
		}{{r.explain, "/api/explain", ""}, {r.pref, "/api/whynot", "preference"}, {r.kw, "/api/whynot", "keyword"}} {
			f := follow{SessionID: rep.SessionID, Missing: s.Missing, Model: step.model}
			switch step.model {
			case "preference":
				f.Lambda = workload.PreferenceLambda
			case "keyword":
				f.Lambda, f.Missing = workload.KeywordLambda, kwMissing(s)
			}
			_, us, err := serve("session", i, step.path+" "+step.model, post(step.path, f))
			if err != nil {
				return err
			}
			step.into["server"] = append(step.into["server"], us)
		}
	}
	eng.Refresh()
	prefOpts := yask.RefineOptions{Lambda: workload.PreferenceLambda}
	kwOpts := yask.RefineOptions{Lambda: workload.KeywordLambda}
	for i, s := range r.sessions {
		yq := toYask(s.Query)
		var err error
		r.explain["yask"] = append(r.explain["yask"], r.tr.time("session", i, "yask", "ExplainCtx", "server", func() {
			_, err = eng.ExplainCtx(ctx, yq, s.Missing)
		}))
		if err != nil {
			return err
		}
		r.pref["yask"] = append(r.pref["yask"], r.tr.time("session", i, "yask", "WhyNotPreferenceCtx", "server", func() {
			_, err = eng.WhyNotPreferenceCtx(ctx, yq, s.Missing, prefOpts)
		}))
		if err != nil {
			return err
		}
		r.kw["yask"] = append(r.kw["yask"], r.tr.time("session", i, "yask", "WhyNotKeywordsCtx", "server", func() {
			_, err = eng.WhyNotKeywordsCtx(ctx, yq, kwMissing(s), kwOpts)
		}))
		if err != nil {
			return err
		}
	}

	// Inserts, last: they change the collection.
	for i, in := range r.depthInserts(0) {
		_, us, err := serve("insert", i, "insert", post("/api/objects", in))
		if err != nil {
			return err
		}
		r.ins["server"] = append(r.ins["server"], us)
	}
	for i, in := range r.depthInserts(1) {
		var err error
		us := r.tr.time("insert", i, "yask", "Insert", "server", func() {
			_, err = eng.Insert(yask.Object{Name: in.Name, X: in.X, Y: in.Y, Keywords: in.Keywords})
		})
		if err != nil {
			return err
		}
		r.ins["yask"] = append(r.ins["yask"], us)
	}
	return nil
}

// coreDepth replays the core.Engine calls the yask layer makes, on an
// engine of its own over the loaded dataset.
func (r *replay) coreDepth() error {
	copts := core.Options{Vocab: r.ds.Vocab, RefreshEvery: noAutoRefresh}
	if r.name == workload.TopKZipf {
		copts.CacheEntries = workload.ZipfCache
	}
	var eng *core.Engine
	if r.durable {
		copts.DataDir, copts.Fsync, copts.CheckpointEvery = filepath.Join(r.dir, "wal-core"), wal.SyncAlways, workload.CheckpointEvery
		var err error
		if eng, err = core.Open(r.ds.Objects.All(), copts); err != nil {
			return err
		}
	} else {
		eng = core.NewEngine(r.ds.Objects, copts)
	}
	defer eng.Close()
	ctx := context.Background()

	for _, q := range r.prewarm {
		if _, err := eng.TopKCtx(ctx, r.scoreQuery(q)); err != nil {
			return err
		}
	}
	for i, q := range r.queries {
		sq := r.scoreQuery(q)
		var err error
		us := r.tr.time("query", i, "core", "TopKCtx", "yask", func() { _, err = eng.TopKCtx(ctx, sq) })
		if err != nil {
			return err
		}
		r.q["core"] = append(r.q["core"], us)
	}
	for i, s := range r.sessions {
		sq, missing := r.scoreQuery(s.Query), objectIDs(s.Missing)
		var err error
		r.explain["core"] = append(r.explain["core"], r.tr.time("session", i, "core", "ExplainCtx", "yask", func() {
			_, err = eng.ExplainCtx(ctx, sq, missing)
		}))
		if err != nil {
			return err
		}
		r.pref["core"] = append(r.pref["core"], r.tr.time("session", i, "core", "AdjustPreferenceCtx", "yask", func() {
			_, err = eng.AdjustPreferenceCtx(ctx, sq, missing, core.PreferenceOptions{Lambda: workload.PreferenceLambda, Algorithm: core.PrefSweepIndexed})
		}))
		if err != nil {
			return err
		}
		var res core.KeywordResult
		r.kw["core"] = append(r.kw["core"], r.tr.time("session", i, "core", "AdaptKeywordsCtx", "yask", func() {
			res, err = eng.AdaptKeywordsCtx(ctx, sq, objectIDs(kwMissing(s)), core.KeywordOptions{Lambda: workload.KeywordLambda, Algorithm: core.KwBoundPrune})
		}))
		if err != nil {
			return err
		}
		r.kwGen = append(r.kwGen, float64(res.CandidatesGenerated))
		r.kwEval = append(r.kwEval, float64(res.CandidatesEvaluated))
	}
	for i, in := range r.depthInserts(2) {
		o := object.Object{Name: in.Name, Loc: geo.Point{X: in.X, Y: in.Y}, Doc: r.ds.Vocab.InternSet(in.Keywords...)}
		var err error
		us := r.tr.time("insert", i, "core", "Insert", "yask", func() { _, err = eng.Insert(o) })
		if err != nil {
			return err
		}
		r.ins["core"] = append(r.ins["core"], us)
	}
	var refresh []float64
	for i := 0; i < 5; i++ {
		refresh = append(refresh, r.tr.time("refresh", i, "core", "Refresh", "", eng.Refresh)/1e3)
	}
	r.set("core.refresh_ms_p50", workload.Percentile(refresh, 0.5), "ms")
	return nil
}

// indexDepth times the index.Snapshot and index.Provider primitives the
// core algorithms bottom out in — on families built with the packages'
// own Builders over a private copy of the collection — and the cache
// and collection calls beside them.
func (r *replay) indexDepth() error {
	coll := object.NewCollection(append([]object.Object(nil), r.ds.Objects.All()...))
	build := func(layer string, b index.Builder) index.Provider {
		var p index.Provider
		us := r.tr.time("build", 0, layer, "Builder", "", func() { p = b(coll) })
		r.set(layer+".build_ms", us/1e3, "ms")
		return p
	}
	set := build("settree", settree.Builder(rtree.DefaultMaxEntries))
	kc := build("kcrtree", kcrtree.Builder(rtree.DefaultMaxEntries))
	setSn, err := set.Acquire()
	if err != nil {
		return err
	}
	kcSn, err := kc.Acquire()
	if err != nil {
		return err
	}
	nc := index.NoCancel

	// Queries: the cache probe core makes, then — on a miss — the SetR
	// top-k and the cache store. The standalone cache has the engines'
	// bounds and is warmed the same way, so it sees the hit/miss sequence
	// their caches did.
	entries := 0
	if r.name == workload.TopKZipf {
		entries = workload.ZipfCache
	}
	cache := qcache.New(entries, 0)
	const epoch = 1
	var getHit, getMiss, put []float64
	var dst []score.Result
	for _, q := range r.prewarm {
		sq := r.scoreQuery(q)
		var hit bool
		if dst, hit = cache.GetTopK(epoch, sq, dst[:0]); !hit {
			cache.PutTopK(epoch, sq, setSn.TopK(nc, score.Scorer{Query: sq, MaxDist: setSn.MaxDist()}, sq.K, nil, dst[:0]))
		}
	}
	for i, q := range r.queries {
		sq := r.scoreQuery(q)
		var hit bool
		get := r.tr.time("query", i, "qcache", "GetTopK", "core", func() { dst, hit = cache.GetTopK(epoch, sq, dst[:0]) })
		if hit {
			getHit = append(getHit, get*1e3)
			r.q["qcache"] = append(r.q["qcache"], get)
			r.q["settree"] = append(r.q["settree"], 0)
			continue
		}
		getMiss = append(getMiss, get*1e3)
		s := score.Scorer{Query: sq, MaxDist: setSn.MaxDist()}
		tree := r.tr.time("query", i, "settree", "Snapshot.TopK", "core", func() { dst = setSn.TopK(nc, s, sq.K, nil, dst[:0]) })
		store := r.tr.time("query", i, "qcache", "PutTopK", "core", func() { cache.PutTopK(epoch, sq, dst) })
		put = append(put, store*1e3)
		r.q["qcache"] = append(r.q["qcache"], get+store)
		r.q["settree"] = append(r.q["settree"], tree)
	}
	r.set("qcache.get_hit_ns_p50", workload.Percentile(getHit, 0.5), "ns")
	r.set("qcache.get_miss_ns_p50", workload.Percentile(getMiss, 0.5), "ns")
	r.set("qcache.put_ns_p50", workload.Percentile(put, 0.5), "ns")

	// Sessions. Preference: validation ranks every missing object on the
	// SetR-tree, then one KcR ForEachCross descent per missing object
	// finds the objects whose score line crosses its. Keyword: every
	// candidate keyword set pays a depth-2 KcR RankBounds per missing
	// object, the survivors an exact KcR CountBetter. Which candidates
	// core generates cannot be seen from outside it, so those two are
	// timed per call on the single-keyword edits of the query and the
	// adaption's time in the tree is not split from core.kw_ms_p50.
	var cbCalls, rbCalls []float64
	for i, ss := range r.sessions {
		sq := r.scoreQuery(ss.Query)
		s := score.Scorer{Query: sq, MaxDist: setSn.MaxDist()}
		var validate, cross float64
		for _, id := range ss.Missing {
			o := coll.Get(object.ID(id))
			validate += r.tr.time("session", i, "settree", "Snapshot.CountBetter", "core", func() { setSn.CountBetter(nc, s, s.Score(o), o.ID) })
			sp, tx := s.Components(o)
			cross += r.tr.time("session", i, "kcrtree", "Snapshot.ForEachCross", "core", func() {
				kcSn.ForEachCross(nc, s, sp, tx, func(object.Object) {}, func(int) {})
			})
		}
		r.pref["settree"] = append(r.pref["settree"], validate)
		r.pref["kcrtree"] = append(r.pref["kcrtree"], cross)

		// The keyword workload asks about the session's first missing
		// object only.
		o := coll.Get(object.ID(kwMissing(ss)[0]))
		var cands []vocab.KeywordSet
		for _, kwd := range sq.Doc {
			if d := sq.Doc.Remove(kwd); !d.Empty() {
				cands = append(cands, d)
			}
		}
		for _, kwd := range o.Doc.Diff(sq.Doc) {
			cands = append(cands, sq.Doc.Add(kwd))
		}
		for _, doc := range cands {
			s2 := score.Scorer{Query: sq.WithDoc(doc), MaxDist: s.MaxDist}
			ref := s2.Score(o)
			rbCalls = append(rbCalls, r.tr.time("session", i, "kcrtree", "Snapshot.RankBounds", "core", func() { kcSn.RankBounds(nc, s2, ref, o.ID, 2) }))
			cbCalls = append(cbCalls, r.tr.time("session", i, "kcrtree", "Snapshot.CountBetter", "core", func() { kcSn.CountBetter(nc, s2, ref, o.ID) }))
		}
	}
	r.set("kcrtree.rankbounds_us_p50", workload.Percentile(rbCalls, 0.5), "us")
	r.set("kcrtree.countbetter_us_p50", workload.Percentile(cbCalls, 0.5), "us")

	// Inserts: the collection append and the two tree inserts — what
	// core.Engine.Insert does under its lock — then, timed apart (see
	// noAutoRefresh), the two re-freezes that publish them.
	var appendUs, setIns, kcIns, setRef, kcRef []float64
	for i, in := range r.depthInserts(3) {
		o := object.Object{Name: in.Name, Loc: geo.Point{X: in.X, Y: in.Y}, Doc: r.ds.Vocab.InternSet(in.Keywords...)}
		var id object.ID
		appendUs = append(appendUs, r.tr.time("insert", i, "object", "Collection.Append", "core", func() {
			id = coll.Append(o) //yask:allow(walfirst) times the raw mutator on the replay's private collection; no engine or log is attached
		}))
		o = coll.Get(id)
		setIns = append(setIns, r.tr.time("insert", i, "settree", "Provider.Insert", "core", func() { set.Insert(o) }))
		kcIns = append(kcIns, r.tr.time("insert", i, "kcrtree", "Provider.Insert", "core", func() { kc.Insert(o) }))
		setRef = append(setRef, r.tr.time("insert", i, "settree", "Provider.Refresh", "core", set.Refresh))
		kcRef = append(kcRef, r.tr.time("insert", i, "kcrtree", "Provider.Refresh", "core", kc.Refresh))
		r.ins["index"] = append(r.ins["index"], appendUs[i]+setIns[i]+kcIns[i])
	}
	var tomb []float64
	for i, id := range r.victims {
		tomb = append(tomb, r.tr.time("delete", i, "object", "Collection.Tombstone", "core", func() {
			coll.Tombstone(object.ID(id)) //yask:allow(walfirst) times the raw mutator on the replay's private collection; no engine or log is attached
		}))
	}
	r.set("object.append_us_p50", workload.Percentile(appendUs, 0.5), "us")
	r.set("object.tombstone_us_p50", workload.Percentile(tomb, 0.5), "us")
	r.set("settree.insert_us_p50", workload.Percentile(setIns, 0.5), "us")
	r.set("kcrtree.insert_us_p50", workload.Percentile(kcIns, 0.5), "us")
	r.set("settree.refresh_ms_p50", workload.Percentile(setRef, 0.5)/1e3, "ms")
	r.set("kcrtree.refresh_ms_p50", workload.Percentile(kcRef, 0.5)/1e3, "ms")
	return nil
}

// walPrimitives times the log and checkpoint calls a durable insert and
// a recovery are made of, on a log of its own. Append and Sync are timed
// apart (the log runs with SyncNone and is synced by hand), so the write
// and the fsync an "always" acknowledgement pays show separately.
func (r *replay) walPrimitives() error {
	dir := filepath.Join(r.dir, "wal-prim")
	log, _, err := wal.Open(dir, 0, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	record := func(in workload.Insert, id int) wal.Record {
		return wal.Record{Op: wal.OpInsert, ID: uint32(r.ds.Objects.Len() + id), X: in.X, Y: in.Y, Name: in.Name, Keywords: in.Keywords}
	}
	var appendUs, syncUs []float64
	ins := r.depthInserts(3)
	for i, in := range ins {
		rec := record(in, i)
		var err error
		appendUs = append(appendUs, r.tr.time("insert", i, "wal", "Log.Append", "core", func() { _, err = log.Append(rec) }))
		if err != nil {
			return err
		}
		syncUs = append(syncUs, r.tr.time("insert", i, "wal", "Log.Sync", "core", func() { err = log.Sync() }))
		if err != nil {
			return err
		}
		r.ins["wal"] = append(r.ins["wal"], appendUs[i]+syncUs[i])
	}
	r.set("wal.append_us_p50", workload.Percentile(appendUs, 0.5), "us")
	r.set("wal.fsync_us_p50", workload.Percentile(syncUs, 0.5), "us")
	// Pad the log, untimed, so replay is timed over enough records for
	// the per-record figure to mean something.
	const replayRecords = 500
	for i := len(ins); i < replayRecords; i++ {
		if _, err := log.Append(record(ins[i%len(ins)], i)); err != nil {
			return err
		}
	}
	size := log.Stats().Size
	if err := log.Close(); err != nil {
		return err
	}
	r.set("wal.bytes_per_mutation", float64(size)/replayRecords, "bytes")

	var records []wal.Record
	us := r.tr.time("recovery", 0, "wal", "Open (replay)", "core", func() { log, records, err = wal.Open(dir, 0, wal.Options{Sync: wal.SyncNone}) })
	if err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	if len(records) != replayRecords {
		return fmt.Errorf("wal replay returned %d records, appended %d", len(records), replayRecords)
	}
	r.set("wal.replay_us_per_record", us/replayRecords, "us")

	all := r.ds.Objects.All()
	rows := make([]wal.Row, len(all))
	for i, o := range all {
		rows[i] = wal.Row{ID: uint32(i), Alive: true, X: o.Loc.X, Y: o.Loc.Y, Name: o.Name, Keywords: r.ds.Vocab.Words(o.Doc)}
	}
	var ckpt []float64
	for i := 0; i < 3; i++ {
		ckpt = append(ckpt, r.tr.time("checkpoint", i, "wal", "WriteCheckpoint", "core", func() {
			_, err = wal.WriteCheckpoint(dir, uint64(replayRecords+i), rows)
		})/1e3)
		if err != nil {
			return err
		}
	}
	r.set("wal.checkpoint_ms_p50", workload.Percentile(ckpt, 0.5), "ms")
	var loaded []wal.Row
	us = r.tr.time("recovery", 0, "wal", "LoadCheckpoint", "core", func() { _, loaded, err = wal.LoadCheckpoint(dir) })
	if err != nil {
		return err
	}
	if len(loaded) != len(rows) {
		return fmt.Errorf("checkpoint load returned %d rows, wrote %d", len(loaded), len(rows))
	}
	r.set("wal.checkpoint_load_ms", us/1e3, "ms")
	return nil
}

// admission times the slot acquire-and-release every query request
// makes, under the workload's limits. One call is tens of nanoseconds,
// below what a clock read resolves, so calls are timed in batches.
func (r *replay) admission() {
	cfg := admission.Config{}
	if r.name == workload.TopKZipf {
		cfg = admission.Config{MaxInflight: workload.ZipfMaxInflight, QueueDepth: workload.ZipfQueueDepth, QueueWait: workload.ZipfQueueWait}
	}
	ctl := admission.New(cfg)
	ctx := context.Background()
	const batch = 200
	var per []float64
	for b := 0; b < 50; b++ {
		us := r.tr.time("admission", b, "admission", "Acquire+release ×200", "server", func() {
			for i := 0; i < batch; i++ {
				if release, err := ctl.Acquire(ctx); err == nil {
					release()
				}
			}
		})
		per = append(per, us*1e3/batch)
	}
	r.set("admission.acquire_ns_p50", workload.Percentile(per, 0.5), "ns")
}

// summarise turns the per-depth spans into the per-layer metrics and
// prints, per request type, the stacked self times beside the server
// span they nest under.
func (r *replay) summarise() {
	p50 := func(xs []float64) float64 { return workload.Percentile(xs, 0.5) }
	sum := func(cols ...[]float64) []float64 {
		out := make([]float64, len(cols[0]))
		for _, c := range cols {
			for i := range out {
				out[i] += c[i]
			}
		}
		return out
	}
	type row struct {
		layer string
		us    float64
	}
	table := func(title string, spans map[string][]float64, rows []row) {
		span, total := p50(spans["server"]), 0.0
		fmt.Printf("%s: span p50 server %.1f, yask %.1f, core %.1f us; self-time p50 by layer:",
			title, span, p50(spans["yask"]), p50(spans["core"]))
		for _, rw := range rows {
			fmt.Printf("  %s %.1f", rw.layer, rw.us)
			total += rw.us
		}
		share := 0.0
		if span > 0 {
			share = 100 * total / span
		}
		fmt.Printf("  = %.1f us (%.0f%% of the span)\n", total, share)
	}

	// selves is the p50 self time of each of the three nested layers of
	// one op type, given the spans per depth and what core spent below it.
	selves := func(spans map[string][]float64, below []float64) (server, yask, core float64) {
		return p50(workload.SelfTimes(spans["server"], spans["yask"])),
			p50(workload.SelfTimes(spans["yask"], spans["core"])),
			p50(workload.SelfTimes(spans["core"], below))
	}

	// Queries: server → yask → core → {qcache, settree}.
	serverSelf, yaskSelf, coreSelf := selves(r.q, sum(r.q["qcache"], r.q["settree"]))
	r.set("server.query_us_p50", p50(r.q["server"]), "us")
	r.set("server.query_self_us_p50", serverSelf, "us")
	r.set("yask.topk_self_us_p50", yaskSelf, "us")
	r.set("core.topk_self_us_p50", coreSelf, "us")
	// The tree's median is over the ops that reached it: misses. The table
	// is printed per class: a hit and a miss differ by an order of
	// magnitude, and medians of such a mixture do not add up.
	class := map[bool]map[string][]float64{false: {}, true: {}}
	for i, tree := range r.q["settree"] {
		for layer, us := range r.q {
			class[tree > 0][layer] = append(class[tree > 0][layer], us[i])
		}
	}
	r.set("settree.topk_us_p50", p50(class[true]["settree"]), "us")
	for _, c := range []struct {
		title string
		spans map[string][]float64
	}{{"query, cache hit", class[false]}, {"query, cache miss", class[true]}} {
		if len(c.spans["server"]) == 0 {
			continue
		}
		server, yask, core := selves(c.spans, sum(c.spans["qcache"], c.spans["settree"]))
		table(fmt.Sprintf("%s (n=%d)", c.title, len(c.spans["server"])), c.spans, []row{
			{"server", server}, {"yask", yask}, {"core", core},
			{"qcache", p50(c.spans["qcache"])}, {"settree", p50(c.spans["settree"])},
		})
	}

	// Explain: reported as spans; its index work is not split out.
	r.set("server.explain_us_p50", p50(r.explain["server"]), "us")
	r.set("core.explain_us_p50", p50(r.explain["core"]), "us")

	// Why-not: server → yask → core → {settree validation, kcrtree}. The
	// two outer layers do the same work for either model, so their self
	// times pool both.
	r.set("core.pref_ms_p50", p50(r.pref["core"])/1e3, "ms")
	r.set("core.kw_ms_p50", p50(r.kw["core"])/1e3, "ms")
	r.set("core.kw_cand_generated_per_op", workload.Mean(r.kwGen), "count")
	r.set("core.kw_cand_evaluated_per_op", workload.Mean(r.kwEval), "count")
	r.set("kcrtree.foreachcross_ms_p50", p50(r.pref["kcrtree"])/1e3, "ms")
	whyServer := append(workload.SelfTimes(r.pref["server"], r.pref["yask"]), workload.SelfTimes(r.kw["server"], r.kw["yask"])...)
	whyYask := append(workload.SelfTimes(r.pref["yask"], r.pref["core"]), workload.SelfTimes(r.kw["yask"], r.kw["core"])...)
	r.set("server.whynot_self_us_p50", p50(whyServer), "us")
	r.set("yask.whynot_self_us_p50", p50(whyYask), "us")
	prefServer, prefYask, prefCore := selves(r.pref, sum(r.pref["settree"], r.pref["kcrtree"]))
	r.set("core.pref_self_ms_p50", prefCore/1e3, "ms")
	table(fmt.Sprintf("whynot preference (n=%d)", len(r.pref["server"])), r.pref, []row{
		{"server", prefServer}, {"yask", prefYask}, {"core", prefCore},
		{"settree", p50(r.pref["settree"])}, {"kcrtree", p50(r.pref["kcrtree"])},
	})
	// Keyword adaption's index time is not split out (see indexDepth), so
	// its core row is core's whole span.
	table(fmt.Sprintf("whynot keyword (n=%d)", len(r.kw["server"])), r.kw, []row{
		{"server", p50(workload.SelfTimes(r.kw["server"], r.kw["yask"]))},
		{"yask", p50(workload.SelfTimes(r.kw["yask"], r.kw["core"]))},
		{"core+index", p50(r.kw["core"])},
	})

	// Inserts, refresh excluded (see noAutoRefresh): server → yask → core
	// → {wal when durable, object + trees}. Each depth inserted objects of
	// its own, so ops pair by position only: the three outer self times
	// are differences of ~2.5 ms spans and resolve nothing below a few
	// hundred microseconds — enough to see a layer start to cost real time.
	below := r.ins["index"]
	rows := []row{{"object+trees", p50(r.ins["index"])}}
	if r.durable {
		below = sum(below, r.ins["wal"])
		rows = append(rows, row{"wal", p50(r.ins["wal"])})
	}
	insServer, insYask, insCore := selves(r.ins, below)
	r.set("server.insert_self_us_p50", insServer, "us")
	r.set("yask.insert_self_us_p50", insYask, "us")
	r.set("core.insert_self_us_p50", insCore, "us")
	table(fmt.Sprintf("insert before its refresh (n=%d)", len(r.ins["server"])), r.ins,
		append([]row{{"server", insServer}, {"yask", insYask}, {"core", insCore}}, rows...))
	fmt.Printf("the refresh every served mutation then pays: core %.1f ms (settree %.1f + kcrtree %.1f)\n",
		r.metrics["core.refresh_ms_p50"].Value, r.metrics["settree.refresh_ms_p50"].Value, r.metrics["kcrtree.refresh_ms_p50"].Value)
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/yask-engine/yask/benchmark/workload"
	"github.com/yask-engine/yask/internal/object"
)

// setups is how many times a run boots yaskd to report the median as
// setup_s; one boot's time moves by several percent with page-cache and
// scheduler luck.
const setups = 3

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	n        int
	sizes    workload.Sizes
	yaskd    string // server binary
	layers   string // traced-run binary; only needed when trace is set
	workRoot string // where the run's scratch directory is made
	traceOut string // where the traced run writes its span file
}

// outcome is everything one run measured.
type outcome struct {
	Workload  string                     `json:"workload"`
	Seed      int64                      `json:"seed"`
	Digest    string                     `json:"digest"`
	N         int                        `json:"n"`
	Seconds   float64                    `json:"seconds"`
	Wall      float64                    `json:"wall_s"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Failures  []string                   `json:"failures,omitempty"`
	Kinds     map[string]kindRow         `json:"kinds"`
	Metrics   map[string]workload.Metric `json:"metrics"`
	// Phases is where the run's own wall time went, in seconds: what the
	// benchmark costs to run, not a property of the server.
	Phases map[string]float64 `json:"phases_s"`
}

// kindRow is one request type's latency distribution over the window;
// N is the sample count behind the percentiles.
type kindRow struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
}

func rowOf(ms []float64) kindRow {
	return kindRow{
		N:   len(ms),
		P50: workload.Percentile(ms, 0.50),
		P95: workload.Percentile(ms, 0.95),
		P99: workload.Percentile(ms, 0.99),
	}
}

func (o *outcome) correct() bool { return o.Failed == 0 && o.Attempted > 0 }

// headline is the request type a workload's latency_* metrics describe.
func headline(name string) string {
	switch name {
	case workload.WhyNotPreference, workload.WhyNotKeyword:
		return kindWhyNot
	case workload.IngestDurable:
		return kindMutation
	}
	return kindQuery
}

// serverArgs are the yaskd flags a workload runs under.
func serverArgs(name, data, dataDir string) []string {
	args := []string{"-data", data}
	switch name {
	case workload.TopKZipf:
		args = append(args,
			"-max-inflight", fmt.Sprint(workload.ZipfMaxInflight),
			"-queue-depth", fmt.Sprint(workload.ZipfQueueDepth),
			"-queue-wait", workload.ZipfQueueWait.String(),
			"-cache-entries", fmt.Sprint(workload.ZipfCache))
	case workload.IngestDurable:
		args = append(args, "-data-dir", dataDir, "-fsync", "always",
			"-checkpoint-every", fmt.Sprint(workload.CheckpointEvery))
	}
	return args
}

// runner drives one server with one plan.
type runner struct {
	plan       *workload.Plan
	clients    []*client
	bodies     [][]byte // plan.Pool, marshalled
	sessBodies [][]byte // plan.Sessions' initial queries, marshalled
	mirror     *workload.Mirror
}

func newRunner(plan *workload.Plan, base string) (*runner, error) {
	r := &runner{plan: plan, clients: newClients(base), mirror: plan.NewMirror()}
	r.bodies = make([][]byte, len(plan.Pool))
	r.sessBodies = make([][]byte, len(plan.Sessions))
	var err error
	for i, q := range plan.Pool {
		if r.bodies[i], err = json.Marshal(q); err != nil {
			return nil, err
		}
	}
	for i, s := range plan.Sessions {
		if r.sessBodies[i], err = json.Marshal(s.Query); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// phase is one stretch of load: the warm-up or the measured window.
type phase struct {
	draws            []int32 // indices into plan.Pool, in send order
	sessFrom, sessTo int     // plan.Sessions[sessFrom:sessTo]
	mutFrom, mutTo   int     // plan.Mutations[mutFrom:mutTo]
	// A phase runs until d has passed and the headline request has floor
	// samples — a p95 needs ten beyond it, and a slow box must buy them
	// with a longer window, not a failed run — but never past 3·d, and
	// never past the end of a stream.
	d     time.Duration
	floor int
}

// play runs one phase and returns the wall time it took.
func (r *runner) play(ph phase) time.Duration {
	p := r.plan
	start := time.Now()
	var heads atomic.Int64
	more := func() bool {
		since := time.Since(start)
		return since < ph.d || (heads.Load() < int64(ph.floor) && since < 3*ph.d)
	}
	head := headline(p.Name)
	// counted runs one client's op and credits the headline samples it
	// produced to the phase.
	counted := func(c *client, op func()) {
		before := len(c.rec.lat[head])
		op()
		heads.Add(int64(len(c.rec.lat[head]) - before))
	}
	query := func(c *client, i int) {
		at := ph.draws[i]
		c.query(p.Pool[at], r.bodies[at], false)
	}
	switch {
	case ph.sessTo > ph.sessFrom:
		closedLoop(r.clients, ph.sessTo-ph.sessFrom, more, func(c *client, i int) {
			counted(c, func() {
				c.session(p.Sessions[ph.sessFrom+i], r.sessBodies[ph.sessFrom+i], p.Model, p.Lambda)
			})
		})
	case ph.mutTo > ph.mutFrom:
		// One writer beside one reader; the reader stops with the writer,
		// so reads and writes overlap for the whole phase.
		writer, reader := r.clients[0], r.clients[1]
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ph.draws {
				select {
				case <-stop:
					return
				default:
				}
				query(reader, i)
			}
		}()
		for i := ph.mutFrom; i < ph.mutTo && more(); i++ {
			counted(writer, func() { writer.mutate(p.Mutations[i], r.mirror) })
		}
		close(stop)
		wg.Wait()
	default:
		closedLoop(r.clients, len(ph.draws), more, func(c *client, i int) {
			counted(c, func() { query(c, i) })
		})
	}
	return time.Since(start)
}

// collect merges and clears the clients' tallies.
func (r *runner) collect() *recorder {
	all := newRecorder()
	for _, c := range r.clients {
		all.merge(c.rec)
		c.reset()
	}
	return all
}

// run executes one workload once and returns what it measured.
func run(cfg config) (*outcome, error) {
	phases := map[string]float64{}
	lap := time.Now()
	mark := func(name string) {
		phases[name] += time.Since(lap).Seconds()
		lap = time.Now()
	}
	work, err := os.MkdirTemp(cfg.workRoot, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	ds, err := workload.Dataset(cfg.n)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return nil, err
	}
	data := filepath.Join(work, "data.json")
	if err := os.WriteFile(data, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	plan, err := workload.New(cfg.workload, ds, cfg.seed, cfg.seconds, cfg.sizes)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		Workload: cfg.workload, Seed: cfg.seed, Digest: plan.Digest(),
		N: cfg.n, Seconds: cfg.seconds,
		Kinds: map[string]kindRow{}, Metrics: map[string]workload.Metric{}, Phases: phases,
	}
	fmt.Printf("workload %s seed %d: op-stream digest %s\n", cfg.workload, cfg.seed, out.Digest)
	mark("generate")

	// Set-up: boot the server — several times when setup_s is reported,
	// each durable boot on a fresh data directory. The last one serves.
	boots := setups
	if cfg.trace {
		boots = 1
	}
	logPath := filepath.Join(work, "yaskd.log")
	var srv *yaskd
	var bootTimes []float64
	var args []string
	for i := 0; i < boots; i++ {
		if srv != nil {
			srv.kill()
		}
		args = serverArgs(cfg.workload, data, filepath.Join(work, fmt.Sprintf("wal-%d", i)))
		var took time.Duration
		if srv, took, err = startYaskd(cfg.yaskd, logPath, args...); err != nil {
			return nil, err
		}
		bootTimes = append(bootTimes, took.Seconds())
	}
	defer func() { srv.kill() }()
	mark("boot")

	r, err := newRunner(plan, srv.base)
	if err != nil {
		return nil, err
	}
	// Warm-up, untimed: connections open, caches at steady state, lazy
	// set-up done. Its requests are checked too.
	r.play(phase{
		draws: plan.Draws[:plan.WarmDraws], sessTo: plan.WarmSessions, mutTo: plan.WarmMutations,
		d: time.Hour,
	})
	if warm := r.collect(); warm.failed > 0 || warm.attempted == 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.failures)
	}
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	mark("warm-up")

	// The traced run's server window only feeds the counters and the
	// transport remainder; the in-process replay gets the other half.
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	wall := r.play(phase{
		draws:    plan.Draws[plan.WarmDraws:],
		sessFrom: plan.WarmSessions, sessTo: len(plan.Sessions),
		mutFrom: plan.WarmMutations, mutTo: len(plan.Mutations),
		d:     time.Duration(seconds * float64(time.Second)),
		floor: workload.MinSamples(0.95),
	})
	rec := r.collect()
	mark("window")

	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	// Correctness, off the clock. While mutations ran the collection was
	// a moving target, so ingest-durable's sampled replies got the order
	// check only and the oracle runs after the crash instead.
	if len(plan.Mutations) == 0 {
		for _, bad := range verifyTopK(plan, ds.Objects, rec.checks) {
			rec.fail(kindQuery, "%s", bad)
		}
	}
	var recovery float64
	if len(plan.Mutations) > 0 || cfg.trace {
		// Crash and restart on the same flags: how long the service is
		// away, and — for the durable server — whether every
		// acknowledged write is still there. A process kill leaves the
		// OS page cache intact: this is process-crash, not power-cut,
		// durability.
		srv.kill()
		again, took, err := startYaskd(cfg.yaskd, logPath, args...)
		if err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		srv, recovery = again, took.Seconds()
		if len(plan.Mutations) > 0 {
			bad, err := r.verifyRecovered(srv)
			if err != nil {
				return nil, err
			}
			for _, b := range bad {
				rec.fail("recovery", "%s", b)
			}
		}
	}

	mark("verify")

	for kind, ms := range rec.lat {
		out.Kinds[kind] = rowOf(ms)
	}
	out.Wall = wall.Seconds()
	out.Attempted, out.Failed, out.Failures = rec.attempted, rec.failed, rec.failures
	head := out.Kinds[headline(cfg.workload)]
	if !cfg.trace {
		out.Metrics["setup_s"] = workload.Metric{Value: workload.Median(bootTimes), Unit: "s"}
		out.Metrics["latency_p50_ms"] = workload.Metric{Value: head.P50, Unit: "ms"}
		out.Metrics["latency_p95_ms"] = workload.Metric{Value: head.P95, Unit: "ms"}
		out.Metrics["ops_per_s"] = workload.Metric{Value: float64(head.N) / wall.Seconds(), Unit: "1/s"}
		out.Metrics["peak_rss_mb"] = workload.Metric{Value: rss, Unit: "MiB"}
		return out, nil
	}

	// Per-layer: counts from the server's own counters across the
	// window, timings from the in-process traced replay.
	layerMetrics, err := runLayers(cfg, data, work)
	if err != nil {
		return nil, err
	}
	for name, m := range layerMetrics {
		out.Metrics[name] = m
	}
	mark("traced replay")
	countMetrics(out, rec, before, after, recovery)
	return out, nil
}

// verifyRecovered checks the restarted server against the mirror: the
// object and live counts, and a sample of the reader's queries against
// the oracle over the mirrored collection.
func (r *runner) verifyRecovered(srv *yaskd) ([]string, error) {
	st, err := srv.stats()
	if err != nil {
		return nil, err
	}
	var bad []string
	if st.Engine.Objects != r.mirror.Len() || st.Engine.Live != r.mirror.Live() {
		bad = append(bad, fmt.Sprintf("recovered %d objects (%d live), acknowledged %d (%d live)",
			st.Engine.Objects, st.Engine.Live, r.mirror.Len(), r.mirror.Live()))
	}
	c := newClients(srv.base)[0]
	const probes = 24
	for i := 0; i < probes && i < len(r.plan.Pool); i++ {
		// The tail of the pool is the unpopular end of the Zipf draw.
		at := len(r.plan.Pool) - 1 - i
		rep, ok := c.query(r.plan.Pool[at], r.bodies[at], true)
		if !ok {
			return append(bad, c.rec.failures...), nil
		}
		c.rec.checks = append(c.rec.checks, topkCheck{query: r.plan.Pool[at], got: rep.ids()})
	}
	return append(bad, verifyTopK(r.plan, r.mirror.Collection(), c.rec.checks)...), nil
}

// verifyTopK compares every sampled reply with the brute-force oracle
// over coll, on two goroutines, and returns the mismatches.
func verifyTopK(plan *workload.Plan, coll *object.Collection, checks []topkCheck) []string {
	// Interning query keywords mutates the vocabulary; do it before the
	// scans share it.
	for _, ch := range checks {
		plan.ScoreQuery(ch.query)
	}
	bad := make([][]string, 2)
	var wg sync.WaitGroup
	for w := range bad {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(checks); i += len(bad) {
				want := plan.OracleTopK(coll, checks[i].query)
				if !equalIDs(want, checks[i].got) {
					bad[w] = append(bad[w], fmt.Sprintf("top-k of %+v: server %v, oracle %v", checks[i].query, checks[i].got, want))
				}
			}
		}(w)
	}
	wg.Wait()
	return append(bad[0], bad[1]...)
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runLayers runs the traced in-process replay (../layers) as its own
// process — only that binary links the engine's layer packages — and
// returns the timings it prints as its last line.
func runLayers(cfg config, data, work string) (map[string]workload.Metric, error) {
	cmd := exec.Command(cfg.layers,
		"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-n", fmt.Sprint(cfg.n),
		"-data", data, "-dir", work, "-out", cfg.traceOut)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	var m map[string]workload.Metric
	if err := json.Unmarshal(lines[len(lines)-1], &m); err != nil {
		return nil, fmt.Errorf("traced run printed no metrics: %w", err)
	}
	return m, nil
}

// countMetrics adds what only the served run can measure: the server's
// counters across the window, the generator's own gaps, the end-to-end
// figures that are not regression-bounded, and the transport remainder.
func countMetrics(out *outcome, rec *recorder, before, after serverStats, recovery float64) {
	set := func(name string, v float64, unit string) { out.Metrics[name] = workload.Metric{Value: v, Unit: unit} }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	b, a := before.Engine.PerShard[0], after.Engine.PerShard[0]
	queries := int64(len(rec.lat[kindQuery]))
	whynots := int64(len(rec.lat[kindWhyNot]))
	mutations := int64(len(rec.lat[kindMutation]))

	q := out.Kinds[kindQuery]
	set("loadgen.gap_p99_ms", workload.Percentile(rec.gap, 0.99), "ms")
	set("e2e.query_p50_ms", q.P50, "ms")
	set("e2e.query_p95_ms", q.P95, "ms")
	set("e2e.recovery_s", recovery, "s")
	set("e2e.error_rate", ratio(int64(rec.failed), int64(rec.attempted)), "ratio")
	set("transport.query_us_p50", q.P50*1000-out.Metrics["server.query_us_p50"].Value, "us")
	set("server.resp_bytes_per_query", ratio(rec.respBytes, int64(rec.queries)), "bytes")

	set("admission.admitted", float64(after.Admission.Admitted-before.Admission.Admitted), "count")
	set("admission.shed", float64(after.Admission.Shed-before.Admission.Shed), "count")

	var hits, misses, evictions, orphaned, bytesNow int64
	if c, c0 := after.Engine.Cache, before.Engine.Cache; c != nil && c0 != nil {
		hits, misses = c.Hits-c0.Hits, c.Misses-c0.Misses
		evictions, orphaned = c.Evictions-c0.Evictions, c.OrphanedEpochs-c0.OrphanedEpochs
		bytesNow = c.Bytes
	}
	set("qcache.hit_rate", ratio(hits, hits+misses), "ratio")
	set("qcache.evictions", float64(evictions), "count")
	set("qcache.orphaned_epochs", float64(orphaned), "count")
	set("qcache.bytes", float64(bytesNow), "bytes")

	// The index counters live on the published arena and restart with
	// every refresh. Beside a writer a delta across the window therefore
	// means nothing: the hit rates are taken over the last epoch alone and
	// the per-request node counts, which have no denominator, read 0.
	if mutations > 0 {
		b = a
		b.SetSigHits, b.SetSigProbes, b.KcSigHits, b.KcSigProbes = 0, 0, 0, 0
	}
	set("settree.nodes_per_topk", ratio(a.SetNodeAccesses-b.SetNodeAccesses, queries), "count")
	set("settree.sig_hit_rate", ratio(a.SetSigHits-b.SetSigHits, a.SetSigProbes-b.SetSigProbes), "ratio")
	set("kcrtree.nodes_per_whynot", ratio(a.KcNodeAccesses-b.KcNodeAccesses, whynots), "count")
	set("kcrtree.sig_hit_rate", ratio(a.KcSigHits-b.KcSigHits, a.KcSigProbes-b.KcSigProbes), "ratio")

	var fsyncs, checkpoints int64
	if d, d0 := after.Engine.Durability, before.Engine.Durability; d != nil && d0 != nil {
		fsyncs, checkpoints = d.WalFsyncs-d0.WalFsyncs, d.Checkpoints-d0.Checkpoints
	}
	set("wal.fsyncs_per_mutation", ratio(fsyncs, mutations), "count")
	set("wal.checkpoints", float64(checkpoints), "count")
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/yask-engine/yask"
	"github.com/yask-engine/yask/internal/admission"
)

// Server is the YASK web service.
type Server struct {
	engine       *yask.Engine
	sessions     *sessionStore
	log          *queryLog
	mux          *http.ServeMux
	admit        *admission.Controller
	queryTimeout time.Duration
	// drainCh closes when graceful shutdown begins: readiness flips to
	// 503 so load balancers stop routing here, and every streaming
	// subscription connection unblocks and returns — a drain can never
	// hang past the shutdown timeout on an idle subscriber.
	drainCh   chan struct{}
	drainOnce sync.Once
	// testDelay, when set, runs inside every admitted query request
	// between admission and the handler — the hook overload-storm tests
	// use to hold slots occupied deterministically.
	testDelay func()
}

// Config configures New.
type Config struct {
	// SessionTTL is the idle lifetime of cached initial queries; zero
	// means DefaultSessionTTL.
	SessionTTL time.Duration
	// LogCapacity bounds the in-memory query log; zero means 256.
	LogCapacity int
	// QueryTimeout is the per-request deadline derived for every query
	// endpoint. Zero means no server-imposed deadline (the client may
	// still cancel).
	QueryTimeout time.Duration
	// MaxInflight, QueueDepth, and QueueWait configure admission
	// control for the query endpoints; see admission.Config.
	// MaxInflight ≤ 0 disables shedding.
	MaxInflight int
	QueueDepth  int
	QueueWait   time.Duration
}

// New returns a Server over the given engine.
func New(engine *yask.Engine, cfg Config) *Server {
	s := &Server{
		engine:   engine,
		sessions: newSessionStore(cfg.SessionTTL),
		log:      newQueryLog(cfg.LogCapacity),
		mux:      http.NewServeMux(),
		admit: admission.New(admission.Config{
			MaxInflight: cfg.MaxInflight,
			QueueDepth:  cfg.QueueDepth,
			QueueWait:   cfg.QueueWait,
		}),
		queryTimeout: cfg.QueryTimeout,
		drainCh:      make(chan struct{}),
	}
	s.mux.HandleFunc("GET /", s.handleUI)
	s.mux.HandleFunc("GET /api/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /api/readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /api/objects", s.handleObjects)
	s.mux.HandleFunc("POST /api/objects", s.handleInsertObject)
	s.mux.HandleFunc("DELETE /api/objects/{id}", s.handleDeleteObject)
	// The query endpoints — everything that runs index traversals on
	// behalf of one request — go through admission control and get a
	// per-request deadline. Health, readiness, stats, and the log stay
	// exempt so operators can always see a melting server, and the
	// streaming subscribe endpoint manages its own lifecycle (a
	// long-lived stream must not pin an admission slot).
	s.mux.HandleFunc("POST /api/query", s.work(s.handleQuery))
	s.mux.HandleFunc("POST /api/batch/query", s.work(s.handleBatchQuery))
	s.mux.HandleFunc("POST /api/explain", s.work(s.handleExplain))
	s.mux.HandleFunc("POST /api/whynot", s.work(s.handleWhyNot))
	s.mux.HandleFunc("POST /api/profile", s.work(s.handleProfile))
	s.mux.HandleFunc("POST /api/suggest", s.work(s.handleSuggest))
	s.mux.HandleFunc("POST /api/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /api/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/log", s.handleLog)
	s.mux.HandleFunc("DELETE /api/session/{id}", s.handleDropSession)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Sessions returns the number of live cached sessions (for monitoring
// and tests).
func (s *Server) Sessions() int { return s.sessions.len() }

// StartDrain flips the server into draining mode: readiness reports
// 503 and every active subscription stream is force-closed, so the
// HTTP server's graceful Shutdown can finish within its timeout.
// Idempotent; call it before http.Server.Shutdown.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// draining reports whether StartDrain has been called.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// work wraps a query handler with the request lifecycle: admission
// control first (shed as 429 + Retry-After so clients back off and
// retry elsewhere), then a per-request deadline derived from the
// server's query timeout. The release is deferred, so a handler panic
// cannot leak an inflight slot.
func (s *Server) work(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.admit.Acquire(r.Context())
		if err != nil {
			if errors.Is(err, admission.ErrShed) {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, err)
				return
			}
			// The client gave up while queued; the status is a formality
			// it will likely never read.
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		defer release()
		ctx := r.Context()
		if s.queryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
			defer cancel()
		}
		if s.testDelay != nil {
			s.testDelay()
		}
		h(w, r.WithContext(ctx))
	}
}

// writeQueryError reports a query-path engine error, classifying the
// request's terminal outcome for the admission counters: an expired
// deadline is the server's own overload signal (503, the client should
// back off), a canceled context means the client is gone, and anything
// else is the caller's bad request.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	s.admit.RecordOutcome(err)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("query deadline exceeded: %w", err))
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. It stays 200 during drain — liveness and readiness diverge
// exactly when a draining server should not be restarted.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 while the server should
// receive traffic, 503 once draining has begun (and, at the daemon
// level, before boot and recovery replay finish — yaskd answers 503
// itself until the engine is open).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is out can only be logged by the
	// client; ignore them here.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeBody decodes a JSON request body of at most 1 MiB. It needs the
// real ResponseWriter: http.MaxBytesReader uses it to close the
// connection once the limit is hit, so the client stops uploading.
// Callers should surface the error through writeBodyError, which maps an
// oversize body to 413 instead of a generic 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeBodyError reports a decodeBody failure: 413 Request Entity Too
// Large for an oversize body, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// queryRequest is the wire form of a spatial keyword top-k query, the
// payload of the paper's HTTP POST protocol.
type queryRequest struct {
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
	// Wt is the textual weight; omitted (0) selects the server default
	// 0.5, matching the paper ("the system ... leaves the weighting
	// vector as a system parameter on the server").
	Wt float64 `json:"wt,omitempty"`
	// Similarity selects the textual similarity model: "" or "jaccard"
	// (default), or "dice".
	Similarity string `json:"similarity,omitempty"`
}

func (qr queryRequest) query() yask.Query {
	return yask.Query{
		X: qr.X, Y: qr.Y, Keywords: qr.Keywords, K: qr.K, Wt: qr.Wt,
		Similarity: qr.Similarity,
	}
}

type queryResponse struct {
	SessionID string        `json:"sessionId"`
	Results   []yask.Result `json:"results"`
	ElapsedMS float64       `json:"elapsedMs"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	q := req.query()
	start := time.Now()
	results, err := s.engine.TopKCtx(r.Context(), q)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	id := s.sessions.put(q)
	s.log.add(logEntry{Time: time.Now(), Kind: "query", SessionID: id, Query: q, ElapsedMS: elapsed})
	writeJSON(w, http.StatusOK, queryResponse{SessionID: id, Results: results, ElapsedMS: elapsed})
}

// batchQueryRequest is the wire form of a concurrent top-k batch: many
// queries answered by one round trip over the engine's bounded worker
// pool. Batch queries are stateless — no session is created — so bulk
// clients (tile renderers, offline evaluators) don't flood the session
// store.
type batchQueryRequest struct {
	Queries []queryRequest `json:"queries"`
	// Workers bounds the executor's concurrency; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

type batchQueryResponse struct {
	Results   [][]yask.Result `json:"results"`
	ElapsedMS float64         `json:"elapsedMs"`
}

// maxBatchQueries bounds one batch request so a single client cannot
// amplify one POST into unbounded server work. Bulk loads larger than
// this split into multiple requests.
const maxBatchQueries = 1024

func (s *Server) handleBatchQuery(w http.ResponseWriter, r *http.Request) {
	var req batchQueryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch needs at least one query"))
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), maxBatchQueries))
		return
	}
	// The worker count is client-supplied; clamp it so a request cannot
	// spawn more goroutines than the host has CPUs.
	workers := req.Workers
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	queries := make([]yask.Query, len(req.Queries))
	for i, qr := range req.Queries {
		queries[i] = qr.query()
	}
	start := time.Now()
	results, err := s.engine.TopKBatchCtx(r.Context(), queries, workers)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	s.log.add(logEntry{Time: time.Now(), Kind: "batch", Query: queries[0],
		BatchSize: len(queries), ElapsedMS: elapsed})
	writeJSON(w, http.StatusOK, batchQueryResponse{Results: results, ElapsedMS: elapsed})
}

// whyNotRequest asks a follow-up question about a cached session's
// initial query. Model selects the refinement module.
type whyNotRequest struct {
	SessionID string          `json:"sessionId"`
	Missing   []yask.ObjectID `json:"missing"`
	Model     string          `json:"model"` // "preference" or "keyword"
	Lambda    float64         `json:"lambda,omitempty"`
}

type whyNotResponse struct {
	Model      string                     `json:"model"`
	Preference *yask.PreferenceRefinement `json:"preference,omitempty"`
	Keyword    *yask.KeywordRefinement    `json:"keyword,omitempty"`
	Best       *yask.BestRefinement       `json:"best,omitempty"`
	// Results is the refined query's result set, displayed directly in
	// the demo UI. It is computed on the same snapshot as the refinement.
	Results   []yask.Result `json:"results"`
	ElapsedMS float64       `json:"elapsedMs"`
}

func (s *Server) handleWhyNot(w http.ResponseWriter, r *http.Request) {
	var req whyNotRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	query, ok := s.sessions.get(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}
	opts := yask.RefineOptions{Lambda: req.Lambda}
	start := time.Now()
	resp := whyNotResponse{Model: req.Model}
	var refined yask.Query
	switch req.Model {
	case "preference":
		ref, err := s.engine.WhyNotPreferenceCtx(r.Context(), query, req.Missing, opts)
		if err != nil {
			s.writeQueryError(w, err)
			return
		}
		resp.Preference = ref
		refined, resp.Results = ref.Query, ref.Results
	case "keyword":
		ref, err := s.engine.WhyNotKeywordsCtx(r.Context(), query, req.Missing, opts)
		if err != nil {
			s.writeQueryError(w, err)
			return
		}
		resp.Keyword = ref
		refined, resp.Results = ref.Query, ref.Results
	case "best":
		ref, err := s.engine.WhyNotBestCtx(r.Context(), query, req.Missing, opts)
		if err != nil {
			s.writeQueryError(w, err)
			return
		}
		resp.Best = ref
		refined, resp.Results = ref.Query, ref.Results
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown model %q (want preference, keyword, or best)", req.Model))
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	penalty := 0.0
	switch {
	case resp.Preference != nil:
		penalty = resp.Preference.Penalty
	case resp.Keyword != nil:
		penalty = resp.Keyword.Penalty
	case resp.Best != nil:
		penalty = resp.Best.Penalty
	}
	s.log.add(logEntry{
		Time: time.Now(), Kind: req.Model, SessionID: req.SessionID,
		Query: refined, Penalty: penalty, ElapsedMS: resp.ElapsedMS,
	})
	writeJSON(w, http.StatusOK, resp)
}

type explainRequest struct {
	SessionID string          `json:"sessionId"`
	Missing   []yask.ObjectID `json:"missing"`
}

type explainResponse struct {
	Explanations []yask.Explanation `json:"explanations"`
	ElapsedMS    float64            `json:"elapsedMs"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	query, ok := s.sessions.get(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}
	start := time.Now()
	exps, err := s.engine.ExplainCtx(r.Context(), query, req.Missing)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	s.log.add(logEntry{Time: time.Now(), Kind: "explain", SessionID: req.SessionID, Query: query, ElapsedMS: elapsed})
	writeJSON(w, http.StatusOK, explainResponse{Explanations: exps, ElapsedMS: elapsed})
}

// profileRequest asks for a missing object's rank-vs-weight profile.
type profileRequest struct {
	SessionID string        `json:"sessionId"`
	Missing   yask.ObjectID `json:"missing"`
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req profileRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	query, ok := s.sessions.get(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}
	steps, err := s.engine.RankProfileCtx(r.Context(), query, req.Missing)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, steps)
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	query, ok := s.sessions.get(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown or expired session %q", req.SessionID))
		return
	}
	sugs, err := s.engine.SuggestKeywordsCtx(r.Context(), query, req.Missing)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sugs)
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.Objects())
}

// insertObjectRequest is the wire form of one live object insertion.
type insertObjectRequest struct {
	Name     string   `json:"name,omitempty"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Keywords []string `json:"keywords"`
}

type insertObjectResponse struct {
	ID yask.ObjectID `json:"id"`
}

func (s *Server) handleInsertObject(w http.ResponseWriter, r *http.Request) {
	var req insertObjectRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	id, err := s.engine.Insert(yask.Object{
		Name: req.Name, X: req.X, Y: req.Y, Keywords: req.Keywords,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.log.add(logEntry{Time: time.Now(), Kind: "insert"})
	writeJSON(w, http.StatusCreated, insertObjectResponse{ID: id})
}

func (s *Server) handleDeleteObject(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad object id %q", r.PathValue("id")))
		return
	}
	if err := s.engine.Remove(yask.ObjectID(id64)); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	s.log.add(logEntry{Time: time.Now(), Kind: "remove"})
	w.WriteHeader(http.StatusNoContent)
}

// parseSubscribeQuery reads a top-k query from URL parameters — the
// subscribe endpoint is a GET (EventSource cannot POST), so the query
// rides in the URL: x, y, k, keywords (comma-separated), and the
// optional wt and similarity.
func parseSubscribeQuery(r *http.Request) (yask.Query, error) {
	p := r.URL.Query()
	var q yask.Query
	var err error
	if q.X, err = strconv.ParseFloat(p.Get("x"), 64); err != nil {
		return q, fmt.Errorf("bad or missing x %q", p.Get("x"))
	}
	if q.Y, err = strconv.ParseFloat(p.Get("y"), 64); err != nil {
		return q, fmt.Errorf("bad or missing y %q", p.Get("y"))
	}
	if q.K, err = strconv.Atoi(p.Get("k")); err != nil {
		return q, fmt.Errorf("bad or missing k %q", p.Get("k"))
	}
	for _, kw := range strings.Split(p.Get("keywords"), ",") {
		if kw = strings.TrimSpace(kw); kw != "" {
			q.Keywords = append(q.Keywords, kw)
		}
	}
	if wt := p.Get("wt"); wt != "" {
		if q.Wt, err = strconv.ParseFloat(wt, 64); err != nil {
			return q, fmt.Errorf("bad wt %q", wt)
		}
	}
	q.Similarity = p.Get("similarity")
	return q, nil
}

// handleSubscribe registers a continuous top-k query and streams its
// pushed updates as server-sent events: one "topk" event per changed
// result, the initial result first. The stream ends when the client
// disconnects or the engine drops a subscriber that stopped reading.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q, err := parseSubscribeQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sub, err := s.engine.Subscribe(q, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	// The stream outlives any server-wide write timeout by design; clear
	// the deadline so long-idle subscriptions aren't cut mid-stream.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.log.add(logEntry{Time: time.Now(), Kind: "subscribe", Query: q})
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// Graceful shutdown: force-close the stream so the drain
			// never waits on an idle subscriber.
			return
		case u, ok := <-sub.Updates():
			if !ok {
				return
			}
			data, err := json.Marshal(u)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: topk\ndata: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// statsResponse is the wire form of GET /api/stats: the engine's
// collection size and index statistics, plus the server's session
// count. Operators read index work (node accesses, signature hits)
// from it.
type statsResponse struct {
	Engine   yask.EngineStats `json:"engine"`
	Sessions int              `json:"sessions"`
	// Admission is the load-shedding controller's counters: current
	// inflight/queued gauges plus cumulative admitted, shed,
	// deadline-exceeded, and canceled request counts.
	Admission admission.Stats `json:"admission"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Engine:    s.engine.Stats(),
		Sessions:  s.sessions.len(),
		Admission: s.admit.Stats(),
	})
}

// handleCheckpoint forces a durable snapshot of the collection and
// retires the WAL segments it covers. 409 on a memory-only engine (no
// -data-dir), 500 when the checkpoint itself fails; on success it
// returns the engine's fresh durability counters.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := s.engine.Checkpoint(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, yask.ErrNotDurable) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	s.log.add(logEntry{Time: time.Now(), Kind: "checkpoint"})
	writeJSON(w, http.StatusOK, s.engine.Stats().Durability)
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.log.recent(50))
}

func (s *Server) handleDropSession(w http.ResponseWriter, r *http.Request) {
	s.sessions.drop(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUI(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}

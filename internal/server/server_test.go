package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/yask-engine/yask"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(yask.HKDemoEngine(), Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

func runQuery(t *testing.T, ts *httptest.Server) queryResponse {
	t.Helper()
	var qr queryResponse
	status, raw := postJSON(t, ts.URL+"/api/query", queryRequest{
		X: 114.172, Y: 22.298, Keywords: []string{"wifi", "breakfast"}, K: 3,
	}, &qr)
	if status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, raw)
	}
	return qr
}

func pickMissing(t *testing.T, ts *httptest.Server, qr queryResponse) yask.ObjectID {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var objs []yask.Result
	if err := json.NewDecoder(resp.Body).Decode(&objs); err != nil {
		t.Fatal(err)
	}
	inResult := map[yask.ObjectID]bool{}
	for _, r := range qr.Results {
		inResult[r.ID] = true
	}
	for _, o := range objs {
		if !inResult[o.ID] {
			return o.ID
		}
	}
	t.Fatal("no missing object available")
	return 0
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	if len(qr.Results) != 3 {
		t.Fatalf("got %d results", len(qr.Results))
	}
	if qr.SessionID == "" {
		t.Fatal("no session ID")
	}
	if qr.ElapsedMS < 0 {
		t.Fatal("negative elapsed")
	}
}

func TestQueryEndpointRejectsBadInput(t *testing.T) {
	_, ts := testServer(t)
	status, _ := postJSON(t, ts.URL+"/api/query", queryRequest{K: 0, Keywords: []string{"x"}}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("k=0 status %d", status)
	}
	status, _ = postJSON(t, ts.URL+"/api/query", map[string]any{"bogus": 1}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown field status %d", status)
	}
	resp, err := http.Post(ts.URL+"/api/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d", resp.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	missing := pickMissing(t, ts, qr)
	var er explainResponse
	status, raw := postJSON(t, ts.URL+"/api/explain", explainRequest{
		SessionID: qr.SessionID, Missing: []yask.ObjectID{missing},
	}, &er)
	if status != http.StatusOK {
		t.Fatalf("explain status %d: %s", status, raw)
	}
	if len(er.Explanations) != 1 || er.Explanations[0].Detail == "" {
		t.Fatalf("bad explanations: %+v", er.Explanations)
	}
}

func TestWhyNotEndpointBothModels(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	missing := pickMissing(t, ts, qr)
	for _, model := range []string{"preference", "keyword"} {
		var wr whyNotResponse
		status, raw := postJSON(t, ts.URL+"/api/whynot", whyNotRequest{
			SessionID: qr.SessionID, Missing: []yask.ObjectID{missing}, Model: model,
		}, &wr)
		if status != http.StatusOK {
			t.Fatalf("%s status %d: %s", model, status, raw)
		}
		// Refined result must contain the missing object.
		found := false
		for _, r := range wr.Results {
			if r.ID == missing {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s refinement did not revive %d", model, missing)
		}
		if model == "preference" && wr.Preference == nil {
			t.Fatal("preference refinement missing from response")
		}
		if model == "keyword" && wr.Keyword == nil {
			t.Fatal("keyword refinement missing from response")
		}
		var refined yask.Query
		if model == "preference" {
			refined = wr.Preference.Query
		} else {
			refined = wr.Keyword.Query
		}
		assertResultsMatchQuery(t, ts, model, refined, wr.Results)
	}
}

// assertResultsMatchQuery fails unless a why-not response's results are
// exactly what /api/query answers for the refined query it returned.
func assertResultsMatchQuery(t *testing.T, ts *httptest.Server, model string, refined yask.Query, results []yask.Result) {
	t.Helper()
	var qr queryResponse
	status, raw := postJSON(t, ts.URL+"/api/query", queryRequest{
		X: refined.X, Y: refined.Y, Keywords: refined.Keywords, K: refined.K,
		Wt: refined.Wt, Similarity: refined.Similarity,
	}, &qr)
	if status != http.StatusOK {
		t.Fatalf("%s: refined query status %d: %s", model, status, raw)
	}
	if len(results) != refined.K || !reflect.DeepEqual(results, qr.Results) {
		t.Fatalf("%s: why-not results %+v, /api/query of the refined query %+v", model, results, qr.Results)
	}
}

func TestWhyNotUnknownModelAndSession(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	status, _ := postJSON(t, ts.URL+"/api/whynot", whyNotRequest{
		SessionID: qr.SessionID, Missing: []yask.ObjectID{0}, Model: "sorcery",
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown model status %d", status)
	}
	status, _ = postJSON(t, ts.URL+"/api/whynot", whyNotRequest{
		SessionID: "nope", Missing: []yask.ObjectID{0}, Model: "preference",
	}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown session status %d", status)
	}
}

func TestSessionLifecycle(t *testing.T) {
	srv, ts := testServer(t)
	qr := runQuery(t, ts)
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d", srv.Sessions())
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/session/"+qr.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop status %d", resp.StatusCode)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("sessions after drop = %d", srv.Sessions())
	}
	// Why-not on a dropped session fails cleanly.
	status, _ := postJSON(t, ts.URL+"/api/whynot", whyNotRequest{
		SessionID: qr.SessionID, Missing: []yask.ObjectID{0}, Model: "preference",
	}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("dropped session status %d", status)
	}
}

func TestSessionTTLExpiry(t *testing.T) {
	st := newSessionStore(time.Minute)
	base := time.Unix(1000, 0)
	st.now = func() time.Time { return base }
	id := st.put(yask.Query{Keywords: []string{"wifi"}})
	if _, ok := st.get(id); !ok {
		t.Fatal("fresh session missing")
	}
	base = base.Add(2 * time.Minute)
	if _, ok := st.get(id); ok {
		t.Fatal("expired session still served")
	}
	// The expired get itself removed the session.
	if _, ok := st.m[id]; ok {
		t.Fatal("expired get left the session behind")
	}
	wantOrder(t, st)
	if st.len() != 0 || st.bytes != 0 {
		t.Fatalf("store len = %d, bytes = %d", st.len(), st.bytes)
	}
}

func TestSessionTTLRefreshOnUse(t *testing.T) {
	st := newSessionStore(time.Minute)
	base := time.Unix(1000, 0)
	st.now = func() time.Time { return base }
	id := st.put(yask.Query{})
	for i := 0; i < 5; i++ {
		base = base.Add(40 * time.Second)
		if _, ok := st.get(id); !ok {
			t.Fatalf("session expired despite activity (step %d)", i)
		}
	}
}

func TestQueryLogBounded(t *testing.T) {
	l := newQueryLog(3)
	for i := 0; i < 10; i++ {
		l.add(logEntry{Kind: fmt.Sprintf("k%d", i)})
	}
	got := l.recent(100)
	if len(got) != 3 {
		t.Fatalf("log kept %d entries", len(got))
	}
	if got[0].Kind != "k9" || got[2].Kind != "k7" {
		t.Fatalf("log order wrong: %+v", got)
	}
}

func TestLogEndpointRecordsActivity(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	missing := pickMissing(t, ts, qr)
	postJSON(t, ts.URL+"/api/whynot", whyNotRequest{
		SessionID: qr.SessionID, Missing: []yask.ObjectID{missing}, Model: "preference",
	}, nil)
	resp, err := http.Get(ts.URL + "/api/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []logEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("log has %d entries, want >= 2", len(entries))
	}
	if entries[0].Kind != "preference" {
		t.Fatalf("latest entry kind %q", entries[0].Kind)
	}
}

func TestUIServed(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("UI status %d", resp.StatusCode)
	}
	for _, needle := range []string{"YASK", "why-not", "/api/query", "canvas"} {
		if !strings.Contains(strings.ToLower(body.String()), strings.ToLower(needle)) {
			t.Fatalf("UI missing %q", needle)
		}
	}
	resp2, _ := http.Get(ts.URL + "/definitely-not-here")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d", resp2.StatusCode)
	}
}

func TestObjectsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var objs []yask.Result
	if err := json.NewDecoder(resp.Body).Decode(&objs); err != nil {
		t.Fatal(err)
	}
	if len(objs) != 539 {
		t.Fatalf("objects = %d, want 539", len(objs))
	}
}

func TestWhyNotBestModel(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	missing := pickMissing(t, ts, qr)
	var wr whyNotResponse
	status, raw := postJSON(t, ts.URL+"/api/whynot", whyNotRequest{
		SessionID: qr.SessionID, Missing: []yask.ObjectID{missing}, Model: "best",
	}, &wr)
	if status != http.StatusOK {
		t.Fatalf("best status %d: %s", status, raw)
	}
	if wr.Best == nil {
		t.Fatal("best refinement missing from response")
	}
	found := false
	for _, r := range wr.Results {
		if r.ID == missing {
			found = true
		}
	}
	if !found {
		t.Fatalf("best refinement did not revive %d", missing)
	}
	assertResultsMatchQuery(t, ts, "best", wr.Best.Query, wr.Results)
}

func TestProfileEndpoint(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	missing := pickMissing(t, ts, qr)
	var steps []yask.RankStep
	status, raw := postJSON(t, ts.URL+"/api/profile", profileRequest{
		SessionID: qr.SessionID, Missing: missing,
	}, &steps)
	if status != http.StatusOK {
		t.Fatalf("profile status %d: %s", status, raw)
	}
	if len(steps) == 0 || steps[0].FromWt != 0 || steps[len(steps)-1].ToWt != 1 {
		t.Fatalf("bad profile: %+v", steps)
	}
	// Unknown session.
	status, _ = postJSON(t, ts.URL+"/api/profile", profileRequest{SessionID: "nope", Missing: missing}, nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown session status %d", status)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	_, ts := testServer(t)
	qr := runQuery(t, ts)
	missing := pickMissing(t, ts, qr)
	var sugs []yask.KeywordSuggestion
	status, raw := postJSON(t, ts.URL+"/api/suggest", explainRequest{
		SessionID: qr.SessionID, Missing: []yask.ObjectID{missing},
	}, &sugs)
	if status != http.StatusOK {
		t.Fatalf("suggest status %d: %s", status, raw)
	}
	if len(sugs) == 0 {
		t.Fatal("no suggestions")
	}
}

func TestBatchQueryEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	req := batchQueryRequest{
		Queries: []queryRequest{
			{X: 114.172, Y: 22.298, Keywords: []string{"wifi", "breakfast"}, K: 3},
			{X: 114.158, Y: 22.281, Keywords: []string{"clean", "wifi"}, K: 2},
			{X: 114.184, Y: 22.280, Keywords: []string{"harbour", "view"}, K: 5},
		},
		Workers: 2,
	}
	var br batchQueryResponse
	status, raw := postJSON(t, ts.URL+"/api/batch/query", req, &br)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if len(br.Results) != len(req.Queries) {
		t.Fatalf("got %d result sets, want %d", len(br.Results), len(req.Queries))
	}
	for i, q := range req.Queries {
		var qr queryResponse
		status, raw := postJSON(t, ts.URL+"/api/query", q, &qr)
		if status != http.StatusOK {
			t.Fatalf("query %d status %d: %s", i, status, raw)
		}
		if len(br.Results[i]) != len(qr.Results) {
			t.Fatalf("query %d: batch %d results, single %d", i, len(br.Results[i]), len(qr.Results))
		}
		for j := range qr.Results {
			if br.Results[i][j].ID != qr.Results[j].ID {
				t.Fatalf("query %d rank %d: batch ID %d, single ID %d",
					i, j, br.Results[i][j].ID, qr.Results[j].ID)
			}
		}
	}
	// Batch queries are stateless: only the single queries above created
	// sessions.
	if got := srv.Sessions(); got != len(req.Queries) {
		t.Fatalf("batch created sessions: %d live, want %d", got, len(req.Queries))
	}
}

func TestBatchQueryEndpointRejectsBadInput(t *testing.T) {
	_, ts := testServer(t)
	status, _ := postJSON(t, ts.URL+"/api/batch/query", batchQueryRequest{}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", status)
	}
	status, _ = postJSON(t, ts.URL+"/api/batch/query", batchQueryRequest{
		Queries: []queryRequest{{X: 1, Y: 1, Keywords: []string{"wifi"}, K: 0}},
	}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid member query status %d", status)
	}
	oversized := batchQueryRequest{Queries: make([]queryRequest, maxBatchQueries+1)}
	for i := range oversized.Queries {
		oversized.Queries[i] = queryRequest{X: 1, Y: 1, Keywords: []string{"wifi"}, K: 1}
	}
	status, raw := postJSON(t, ts.URL+"/api/batch/query", oversized, nil)
	if status != http.StatusBadRequest || !strings.Contains(raw, "exceeds the limit") {
		t.Fatalf("oversized batch status %d: %s", status, raw)
	}
}

// TestStatsEndpoint pins the GET /api/stats shape the served-path
// benchmark decodes (benchmark/yaskd.go's serverStats): every key it
// reads is present under the same name, perShard is exactly one row,
// and the counters it turns into per-layer metrics move after one
// query and one insert on a durable engine.
func TestStatsEndpoint(t *testing.T) {
	eng, err := yask.OpenHKDemoEngine(yask.EngineOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(New(eng, Config{}))
	defer ts.Close()
	status, raw := postJSON(t, ts.URL+"/api/query", queryRequest{
		X: 114.172, Y: 22.298, Keywords: []string{"wifi", "breakfast"}, K: 3,
	}, nil)
	if status != http.StatusOK {
		t.Fatalf("query status %d: %s", status, raw)
	}
	status, raw = postJSON(t, ts.URL+"/api/objects", insertObjectRequest{
		Name: "new", X: 114.1, Y: 22.3, Keywords: []string{"wifi"},
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("insert status %d: %s", status, raw)
	}

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var st struct {
		Engine struct {
			Objects  int `json:"objects"`
			Live     int `json:"live"`
			PerShard []struct {
				SetNodeAccesses int64 `json:"setNodeAccesses"`
				KcNodeAccesses  int64 `json:"kcNodeAccesses"`
				SetSigProbes    int64 `json:"setSigProbes"`
				SetSigHits      int64 `json:"setSigHits"`
				KcSigProbes     int64 `json:"kcSigProbes"`
				KcSigHits       int64 `json:"kcSigHits"`
			} `json:"perShard"`
			Cache *struct {
				Bytes          int64 `json:"bytes"`
				Hits           int64 `json:"hits"`
				Misses         int64 `json:"misses"`
				Evictions      int64 `json:"evictions"`
				OrphanedEpochs int64 `json:"orphanedEpochs"`
			} `json:"cache"`
			Durability *struct {
				WalAppends      int64 `json:"walAppends"`
				WalFsyncs       int64 `json:"walFsyncs"`
				WalBytes        int64 `json:"walBytes"`
				Checkpoints     int64 `json:"checkpoints"`
				ReplayedRecords int   `json:"replayedRecords"`
			} `json:"durability"`
		} `json:"engine"`
		Admission struct {
			Admitted int64 `json:"admitted"`
			Shed     int64 `json:"shed"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	assertWireKeys(t, "", reflect.TypeOf(st), wire)

	e := st.Engine
	if len(e.PerShard) != 1 {
		t.Fatalf("perShard has %d rows, want 1", len(e.PerShard))
	}
	if e.Objects == 0 || e.Live != e.Objects {
		t.Fatalf("objects %d, live %d", e.Objects, e.Live)
	}
	if e.PerShard[0].SetNodeAccesses == 0 {
		t.Fatal("setNodeAccesses = 0 after a query")
	}
	if e.Cache == nil || e.Cache.Misses == 0 {
		t.Fatalf("cache section %+v after a miss", e.Cache)
	}
	if e.Durability == nil || e.Durability.WalAppends == 0 || e.Durability.WalBytes == 0 {
		t.Fatalf("durability section %+v after an insert", e.Durability)
	}
	if st.Admission.Admitted == 0 {
		t.Fatal("admission.admitted = 0 after a query")
	}
}

// assertWireKeys fails unless every JSON key typ declares is present in
// m, recursing into nested structs, through pointers, and into the
// first element of slices — so renaming a field the benchmark reads
// fails here rather than decoding silently to zero.
func assertWireKeys(t *testing.T, path string, typ reflect.Type, m map[string]any) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key := path + "." + f.Tag.Get("json")
		val, ok := m[f.Tag.Get("json")]
		if !ok {
			t.Fatalf("GET /api/stats has no %s", key)
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Slice {
			rows, _ := val.([]any)
			if len(rows) == 0 {
				t.Fatalf("GET /api/stats %s is empty", key)
			}
			ft, val = ft.Elem(), rows[0]
		}
		if ft.Kind() == reflect.Struct {
			sub, ok := val.(map[string]any)
			if !ok {
				t.Fatalf("GET /api/stats %s is %T, want an object", key, val)
			}
			assertWireKeys(t, key, ft, sub)
		}
	}
}

// TestStatsSignatureFields: the keyword-signature telemetry reaches the
// wire — the configuration flag, live probe/hit counters (engine-level
// and per family), and the hit rate — and a disabled engine
// reports the layer off with zero activity.
func TestStatsSignatureFields(t *testing.T) {
	_, ts := testServer(t)
	runQuery(t, ts) // generate some signature probes

	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Engine.Signatures {
		t.Fatalf("signatures off by default: %+v", st.Engine)
	}
	if st.Engine.SigProbes == 0 {
		t.Fatalf("no signature probes after a query: %+v", st.Engine)
	}
	if st.Engine.SigHits > st.Engine.SigProbes {
		t.Fatalf("hits %d exceed probes %d", st.Engine.SigHits, st.Engine.SigProbes)
	}
	if st.Engine.SigHitRate < 0 || st.Engine.SigHitRate > 1 {
		t.Fatalf("hit rate %v outside [0, 1]", st.Engine.SigHitRate)
	}
	var probes int64
	for _, sh := range st.Engine.PerShard {
		probes += sh.SetSigProbes + sh.KcSigProbes
	}
	if probes != st.Engine.SigProbes {
		t.Fatalf("per-family probes %d != engine total %d", probes, st.Engine.SigProbes)
	}

	// A signature-disabled engine reports the layer off, with zero
	// probe/hit activity, over the same wire fields.
	eng := yask.HKDemoEngineWith(yask.EngineOptions{DisableSignatures: true})
	ts2 := httptest.NewServer(New(eng, Config{}))
	defer ts2.Close()
	runQuery(t, ts2)
	resp2, err := http.Get(ts2.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st2 statsResponse
	if err := json.NewDecoder(resp2.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if st2.Engine.Signatures || st2.Engine.SigProbes != 0 || st2.Engine.SigHits != 0 {
		t.Fatalf("disabled engine reports signature activity: %+v", st2.Engine)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// Memory-only engine: the endpoint refuses with 409.
	_, ts := testServer(t)
	status, raw := postJSON(t, ts.URL+"/api/checkpoint", struct{}{}, nil)
	if status != http.StatusConflict {
		t.Fatalf("checkpoint on memory engine: status %d: %s", status, raw)
	}

	// Durable engine: 200 plus fresh durability counters, and the stats
	// endpoint carries the same durability section.
	eng, err := yask.OpenHKDemoEngine(yask.EngineOptions{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts2 := httptest.NewServer(New(eng, Config{}))
	defer ts2.Close()
	status, raw = postJSON(t, ts2.URL+"/api/objects", insertObjectRequest{
		Name: "new", X: 114.1, Y: 22.3, Keywords: []string{"wifi"},
	}, nil)
	if status != http.StatusCreated {
		t.Fatalf("insert status %d: %s", status, raw)
	}
	var d yask.DurabilityStats
	status, raw = postJSON(t, ts2.URL+"/api/checkpoint", struct{}{}, &d)
	if status != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", status, raw)
	}
	if d.LastCheckpoint != 1 || d.SinceCheckpoint != 0 || d.Checkpoints == 0 {
		t.Fatalf("checkpoint response: %+v", d)
	}
	resp, err := http.Get(ts2.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Durability == nil || st.Engine.Durability.LastCheckpoint != 1 {
		t.Fatalf("stats durability section: %+v", st.Engine.Durability)
	}
}

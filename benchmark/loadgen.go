package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/yask-engine/yask/benchmark/workload"
)

// Request kinds latencies are kept under.
const (
	kindQuery   = "query"
	kindExplain = "explain"
	kindWhyNot  = "whynot"
	kindInsert  = "insert"
	kindDelete  = "delete"
	// kindMutation pools inserts and deletes — every acknowledged write
	// is recorded under its own kind and under this one, which is the
	// latency ingest-durable's headline reports.
	kindMutation = "mutation"
)

// maxClients is the generator's whole concurrency: the sizing box has
// two cores and the server shares them.
const maxClients = 2

// topkCheck is one sampled top-k response held for the oracle.
type topkCheck struct {
	query workload.Query
	got   []uint32
}

// recorder is one client's private tally; clients never share one, so
// the window needs no locks. Latencies are milliseconds.
type recorder struct {
	lat map[string][]float64
	// gap is, per request but a client's first, how long after the
	// previous reply ended it was sent: the generator's own share of a
	// closed-loop cycle (decoding, checking, marshalling the next body).
	gap       []float64
	attempted int
	failed    int
	failures  []string // the first few, for the report
	queries   int
	respBytes int64
	checks    []topkCheck
}

func (r *recorder) ok(kind string, ms float64) { r.lat[kind] = append(r.lat[kind], ms) }

// fail counts a request that errored, was refused, or answered wrongly.
// It contributes no latency sample.
func (r *recorder) fail(kind, format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, kind+": "+fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.gap = append(r.gap, o.gap...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.failures = append(r.failures, o.failures...)
	r.queries += o.queries
	r.respBytes += o.respBytes
	r.checks = append(r.checks, o.checks...)
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

// client is one keep-alive HTTP/1.1 connection's worth of load.
type client struct {
	base string
	hc   *http.Client
	body bytes.Buffer // the last response, reused across requests
	rec  *recorder
	// idleSince is when the previous reply finished.
	idleSince time.Time
}

func newClients(base string) []*client {
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: maxClients,
		MaxConnsPerHost:     maxClients,
	}}
	cs := make([]*client, maxClients)
	for i := range cs {
		cs[i] = &client{base: base, hc: hc, rec: newRecorder()}
	}
	return cs
}

func (c *client) reset() { c.rec, c.idleSince = newRecorder(), time.Time{} }

// send issues one request and reads the whole reply into c.body, and
// returns the reply's status and the latency in milliseconds from the
// send to the reply's last byte.
func (c *client) send(method, path string, body []byte) (status int, ms float64, err error) {
	from := time.Now()
	if !c.idleSince.IsZero() {
		c.rec.gap = append(c.rec.gap, ms64(from.Sub(c.idleSince)))
	}
	c.rec.attempted++
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	c.idleSince = time.Now()
	if err != nil {
		return 0, 0, err
	}
	return resp.StatusCode, ms64(c.idleSince.Sub(from)), nil
}

func ms64(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// queryReply is what the driver reads of POST /api/query's answer.
type queryReply struct {
	SessionID string `json:"sessionId"`
	Results   []struct {
		ID    uint32
		Score float64
	} `json:"results"`
}

func (q queryReply) ids() []uint32 {
	ids := make([]uint32, len(q.Results))
	for i, r := range q.Results {
		ids[i] = r.ID
	}
	return ids
}

// checkOrder is the part of top-k correctness that holds even while the
// collection is being mutated: at most k results, best score first.
func (q queryReply) checkOrder(k int) error {
	if len(q.Results) > k {
		return fmt.Errorf("%d results for k=%d", len(q.Results), k)
	}
	for i := 1; i < len(q.Results); i++ {
		if q.Results[i].Score > q.Results[i-1].Score {
			return fmt.Errorf("result %d scores above result %d", i, i-1)
		}
	}
	return nil
}

// query sends one top-k query. Every workload.VerifyEvery-th reply of a
// client (and every reply when decode is set, which sessions need for
// the session ID) is decoded, order-checked, and queued for the oracle.
func (c *client) query(q workload.Query, body []byte, decode bool) (queryReply, bool) {
	var rep queryReply
	status, ms, err := c.send(http.MethodPost, "/api/query", body)
	if err != nil {
		c.rec.fail(kindQuery, "%v", err)
		return rep, false
	}
	if status != http.StatusOK {
		c.rec.fail(kindQuery, "status %d: %s", status, c.body.Bytes())
		return rep, false
	}
	c.rec.queries++
	c.rec.respBytes += int64(c.body.Len())
	sampled := c.rec.queries%workload.VerifyEvery == 0
	if decode || sampled {
		if err := json.Unmarshal(c.body.Bytes(), &rep); err != nil {
			c.rec.fail(kindQuery, "undecodable reply: %v", err)
			return rep, false
		}
		if err := rep.checkOrder(q.K); err != nil {
			c.rec.fail(kindQuery, "%v", err)
			return rep, false
		}
		if sampled {
			c.rec.checks = append(c.rec.checks, topkCheck{query: q, got: rep.ids()})
		}
	}
	c.rec.ok(kindQuery, ms)
	return rep, true
}

// whyNotReply is what the driver reads of POST /api/whynot's answer.
type whyNotReply struct {
	Preference *struct{ Penalty float64 } `json:"preference"`
	Keyword    *struct{ Penalty float64 } `json:"keyword"`
	Results    []struct{ ID uint32 }      `json:"results"`
}

// check is the why-not correctness rule: the reply carries the
// refinement asked for, with a penalty in [0, 1], and the refined
// query's result contains every object the user missed — the point of
// a refinement.
func (w whyNotReply) check(missing []uint32) error {
	var penalty float64
	switch {
	case w.Preference != nil:
		penalty = w.Preference.Penalty
	case w.Keyword != nil:
		penalty = w.Keyword.Penalty
	default:
		return fmt.Errorf("reply carries no refinement")
	}
	if !(penalty >= 0 && penalty <= 1) {
		return fmt.Errorf("penalty %v outside [0, 1]", penalty)
	}
	have := make(map[uint32]bool, len(w.Results))
	for _, r := range w.Results {
		have[r.ID] = true
	}
	for _, id := range missing {
		if !have[id] {
			return fmt.Errorf("refined result lacks missing object %d", id)
		}
	}
	return nil
}

// session plays the paper's interaction: the initial query, the
// explanation of why the expected objects are missing, and one
// refinement under model. A failed step ends the session.
func (c *client) session(s workload.Session, body []byte, model string, lambda float64) {
	rep, ok := c.query(s.Query, body, true)
	if !ok {
		return
	}
	follow, err := json.Marshal(struct {
		SessionID string   `json:"sessionId"`
		Missing   []uint32 `json:"missing"`
	}{rep.SessionID, s.Missing})
	if err != nil {
		c.rec.fail(kindExplain, "%v", err)
		return
	}
	status, ms, err := c.send(http.MethodPost, "/api/explain", follow)
	var exp struct {
		Explanations []struct{ ID uint32 } `json:"explanations"`
	}
	switch {
	case err != nil:
		c.rec.fail(kindExplain, "%v", err)
		return
	case status != http.StatusOK:
		c.rec.fail(kindExplain, "status %d: %s", status, c.body.Bytes())
		return
	case json.Unmarshal(c.body.Bytes(), &exp) != nil || len(exp.Explanations) != len(s.Missing):
		c.rec.fail(kindExplain, "want %d explanations, got %s", len(s.Missing), c.body.Bytes())
		return
	}
	c.rec.ok(kindExplain, ms)

	ask, err := json.Marshal(struct {
		SessionID string   `json:"sessionId"`
		Missing   []uint32 `json:"missing"`
		Model     string   `json:"model"`
		Lambda    float64  `json:"lambda"`
	}{rep.SessionID, s.Missing, model, lambda})
	if err != nil {
		c.rec.fail(kindWhyNot, "%v", err)
		return
	}
	status, ms, err = c.send(http.MethodPost, "/api/whynot", ask)
	var why whyNotReply
	switch {
	case err != nil:
		c.rec.fail(kindWhyNot, "%v", err)
	case status != http.StatusOK:
		c.rec.fail(kindWhyNot, "status %d: %s", status, c.body.Bytes())
	case json.Unmarshal(c.body.Bytes(), &why) != nil:
		c.rec.fail(kindWhyNot, "undecodable reply %s", c.body.Bytes())
	default:
		if err := why.check(s.Missing); err != nil {
			c.rec.fail(kindWhyNot, "%v", err)
			return
		}
		c.rec.ok(kindWhyNot, ms)
	}
}

// mutate sends one write and, once it is acknowledged, applies it to
// the mirror. An insert must come back with the next dense ID.
func (c *client) mutate(m workload.Mutation, mirror *workload.Mirror) {
	if m.Insert == nil {
		status, ms, err := c.send(http.MethodDelete, fmt.Sprintf("/api/objects/%d", m.Delete), nil)
		switch {
		case err != nil:
			c.rec.fail(kindDelete, "%v", err)
		case status != http.StatusNoContent:
			c.rec.fail(kindDelete, "status %d: %s", status, c.body.Bytes())
		default:
			mirror.Apply(m)
			c.rec.ok(kindDelete, ms)
			c.rec.ok(kindMutation, ms)
		}
		return
	}
	body, err := json.Marshal(m.Insert)
	if err != nil {
		c.rec.fail(kindInsert, "%v", err)
		return
	}
	status, ms, err := c.send(http.MethodPost, "/api/objects", body)
	var ack struct {
		ID uint32 `json:"id"`
	}
	switch {
	case err != nil:
		c.rec.fail(kindInsert, "%v", err)
	case status != http.StatusCreated:
		c.rec.fail(kindInsert, "status %d: %s", status, c.body.Bytes())
	case json.Unmarshal(c.body.Bytes(), &ack) != nil || ack.ID != mirror.NextID():
		// The server did insert something; keep the mirror's ID space in
		// step so one bad ack does not fail every later insert too.
		mirror.Apply(m)
		c.rec.fail(kindInsert, "acked %s, want id %d", c.body.Bytes(), mirror.NextID()-1)
	default:
		mirror.Apply(m)
		c.rec.ok(kindInsert, ms)
		c.rec.ok(kindMutation, ms)
	}
}

// closedLoop runs op(client, i) for i = 0…n-1, client c taking every
// len(clients)-th op and sending its next one only after the previous
// reply, for as long as more() says so. It returns when every client has
// stopped.
func closedLoop(clients []*client, n int, more func() bool, op func(c *client, i int)) {
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < n && more(); i += len(clients) {
				op(c, i)
			}
		}(ci, c)
	}
	wg.Wait()
}

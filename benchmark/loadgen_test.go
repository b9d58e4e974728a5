package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestClosedLoopSplitsOpsAndStops(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	clients := newClients(srv.URL)
	seen := make([]atomic.Int32, 40)
	closedLoop(clients, len(seen), func() bool { return true }, func(c *client, i int) {
		seen[i].Add(1)
		c.send(http.MethodGet, "/", nil)
	})
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Errorf("op %d ran %d times", i, seen[i].Load())
		}
	}
	var ran atomic.Int32
	deadline := time.Now().Add(50 * time.Millisecond)
	closedLoop(clients, 1<<30, func() bool { return time.Now().Before(deadline) }, func(c *client, i int) {
		ran.Add(1)
		time.Sleep(time.Millisecond)
	})
	if ran.Load() == 0 {
		t.Error("closed loop ran nothing before its deadline")
	}
}

func TestWhyNotReplyCheck(t *testing.T) {
	decode := func(s string) whyNotReply {
		var w whyNotReply
		if err := json.Unmarshal([]byte(s), &w); err != nil {
			t.Fatal(err)
		}
		return w
	}
	good := decode(`{"model":"keyword","keyword":{"Penalty":0.25},"results":[{"ID":3},{"ID":9},{"ID":4}]}`)
	if err := good.check([]uint32{9, 4}); err != nil {
		t.Errorf("good reply rejected: %v", err)
	}
	if err := good.check([]uint32{9, 7}); err == nil {
		t.Error("refined result without missing object 7 accepted")
	}
	if err := decode(`{"preference":{"Penalty":1.5},"results":[{"ID":9}]}`).check([]uint32{9}); err == nil {
		t.Error("penalty 1.5 accepted")
	}
	if err := decode(`{"results":[{"ID":9}]}`).check([]uint32{9}); err == nil {
		t.Error("reply without a refinement accepted")
	}
}

func TestQueryReplyOrderCheck(t *testing.T) {
	var rep queryReply
	if err := json.Unmarshal([]byte(`{"results":[{"ID":1,"Score":0.9},{"ID":2,"Score":0.95}]}`), &rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.checkOrder(10); err == nil {
		t.Error("results out of score order accepted")
	}
	rep.Results[1].Score = 0.5
	if err := rep.checkOrder(10); err != nil {
		t.Errorf("ordered results rejected: %v", err)
	}
	if err := rep.checkOrder(1); err == nil {
		t.Error("two results accepted for k=1")
	}
}

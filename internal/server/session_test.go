package server

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/yask-engine/yask"
)

// fakeClock is an injectable session-store clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func clockedStore(ttl time.Duration) (*sessionStore, *fakeClock) {
	st := newSessionStore(ttl)
	c := &fakeClock{t: time.Unix(1000, 0)}
	st.now = c.now
	return st, c
}

// order returns the session IDs from the least to the most recently used.
func order(st *sessionStore) []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	var ids []string
	for s := st.head; s != nil; s = s.next {
		ids = append(ids, s.id)
	}
	return ids
}

// checkStore verifies the store's structural invariants: the recency
// list and the map hold the same sessions, the links agree in both
// directions, the byte total matches, and lastUsed never decreases from
// front to back.
func checkStore(t *testing.T, st *sessionStore) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	n, bytes := 0, 0
	var prev *session
	for s := st.head; s != nil; s = s.next {
		if s.prev != prev {
			t.Fatalf("session %s: prev link broken", s.id)
		}
		if st.m[s.id] != s {
			t.Fatalf("session %s on the list but not in the map", s.id)
		}
		if prev != nil && s.lastUsed.Before(prev.lastUsed) {
			t.Fatalf("session %s used before its predecessor", s.id)
		}
		n++
		bytes += s.bytes
		prev = s
	}
	if st.tail != prev {
		t.Fatal("tail is not the last listed session")
	}
	if n != len(st.m) {
		t.Fatalf("list holds %d sessions, map %d", n, len(st.m))
	}
	if bytes != st.bytes {
		t.Fatalf("byte total %d, listed sessions hold %d", st.bytes, bytes)
	}
	if n > st.maxCount || (n > 1 && st.bytes > st.maxBytes) {
		t.Fatalf("caps exceeded: %d sessions, %d bytes", n, st.bytes)
	}
}

func wantOrder(t *testing.T, st *sessionStore, want ...string) {
	t.Helper()
	if got := order(st); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("recency order %v, want %v", got, want)
	}
	checkStore(t, st)
}

func TestSessionStoreExpiryPopsFrontOnly(t *testing.T) {
	st, c := clockedStore(time.Minute)
	a := st.put(yask.Query{})
	c.advance(10 * time.Second)
	b := st.put(yask.Query{})
	c.advance(10 * time.Second)
	cc := st.put(yask.Query{})
	wantOrder(t, st, a, b, cc)

	// At +65 s only a (65 s idle) has expired; b (55 s) has not.
	c.advance(45 * time.Second)
	if n := st.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	wantOrder(t, st, b, cc)

	// Expiry stops at the first live session: a stale stamp planted
	// behind it is never looked at.
	st.mu.Lock()
	st.m[cc].lastUsed = time.Unix(0, 0)
	st.mu.Unlock()
	if n := st.len(); n != 2 {
		t.Fatalf("expiry walked past the live front: len = %d", n)
	}
	if _, ok := st.m[cc]; !ok {
		t.Fatal("a session behind the live front was expired")
	}
}

func TestSessionStoreGetRefreshesAndMovesToBack(t *testing.T) {
	st, c := clockedStore(time.Minute)
	a := st.put(yask.Query{K: 1})
	b := st.put(yask.Query{K: 2})
	cc := st.put(yask.Query{K: 3})
	c.advance(30 * time.Second)
	q, ok := st.get(a)
	if !ok || q.K != 1 {
		t.Fatalf("get = (%+v, %v)", q, ok)
	}
	wantOrder(t, st, b, cc, a)
	if got := st.m[a].lastUsed; !got.Equal(c.t) {
		t.Fatalf("get did not refresh lastUsed: %v", got)
	}
	// At +70 s b and c are 70 s idle, a only 40 s.
	c.advance(40 * time.Second)
	if n := st.len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	wantOrder(t, st, a)
}

func TestSessionStoreDropAndLen(t *testing.T) {
	st, _ := clockedStore(time.Minute)
	a := st.put(yask.Query{Keywords: []string{"a"}})
	b := st.put(yask.Query{Keywords: []string{"bb"}})
	cc := st.put(yask.Query{Keywords: []string{"ccc"}})
	st.drop(b)
	st.drop("unknown")
	if n := st.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	wantOrder(t, st, a, cc)
	if _, ok := st.get(b); ok {
		t.Fatal("dropped session served")
	}
	st.drop(a)
	st.drop(cc)
	if n := st.len(); n != 0 || st.bytes != 0 || st.head != nil || st.tail != nil {
		t.Fatalf("empty store: len %d, bytes %d, head %v, tail %v", n, st.bytes, st.head, st.tail)
	}
}

func TestSessionStoreCountCapEvictsOldest(t *testing.T) {
	st, _ := clockedStore(time.Minute)
	st.maxCount = 3
	a := st.put(yask.Query{})
	b := st.put(yask.Query{})
	cc := st.put(yask.Query{})
	d := st.put(yask.Query{})
	wantOrder(t, st, b, cc, d)
	if _, ok := st.get(a); ok {
		t.Fatal("evicted session served")
	}
	// A get makes b the most recent, so c is now the oldest.
	st.get(b)
	e := st.put(yask.Query{})
	wantOrder(t, st, d, b, e)
}

func TestSessionStoreByteCapEvictsOldest(t *testing.T) {
	st, _ := clockedStore(time.Minute)
	small := yask.Query{Keywords: []string{"wifi"}}
	big := yask.Query{Keywords: []string{strings.Repeat("x", 100), "pool"}}
	per := queryBytes(small)
	st.maxBytes = 3 * per
	a := st.put(small)
	b := st.put(small)
	cc := st.put(small)
	wantOrder(t, st, a, b, cc)
	d := st.put(small)
	wantOrder(t, st, b, cc, d)
	// One large session pushes out as many of the oldest as it takes;
	// a session alone is kept even over the cap.
	e := st.put(big)
	wantOrder(t, st, e)
	f := st.put(small)
	wantOrder(t, st, f)
}

// TestSessionStorePutIsO1 is the structural complexity check: with 100k
// live sessions, a put expires and evicts nothing and looks at nothing
// past the live front. Stale stamps planted in the middle and at the
// back of the list (which no real clock can produce) would be removed
// by any sweep of the map; they survive because nothing visits them.
func TestSessionStorePutIsO1(t *testing.T) {
	const live = 100_000
	st, c := clockedStore(time.Minute)
	ids := make([]string, live)
	for i := range ids {
		ids[i] = st.put(yask.Query{Keywords: []string{"wifi"}})
	}
	st.mu.Lock()
	mid, back := st.m[ids[live/2]], st.tail
	mid.lastUsed, back.lastUsed = time.Unix(0, 0), time.Unix(0, 0)
	st.mu.Unlock()

	c.advance(time.Second)
	st.put(yask.Query{Keywords: []string{"wifi"}})
	if n := len(st.m); n != live+1 {
		t.Fatalf("put at %d live sessions left %d", live, n)
	}
	if n := st.len(); n != live+1 {
		t.Fatalf("len() at %d live sessions = %d", live, n)
	}
	for _, id := range []string{ids[0], ids[live/2], ids[live-1]} {
		if _, ok := st.m[id]; !ok {
			t.Fatalf("session %s was visited and removed", id)
		}
	}
}

// TestSessionStoreConcurrentStorm hammers one store from many
// goroutines with puts, gets, drops and len calls under small caps, so
// eviction, expiry and move-to-back interleave; the race detector
// checks the locking and checkStore the structure afterwards.
func TestSessionStoreConcurrentStorm(t *testing.T) {
	st := newSessionStore(50 * time.Millisecond)
	st.maxCount = 64
	st.maxBytes = 64 * queryBytes(yask.Query{Keywords: []string{"wifi", "pool"}})
	const (
		goroutines = 8
		iters      = 2000
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []string
			for i := 0; i < iters; i++ {
				switch op := rng.Intn(10); {
				case op < 4 || len(mine) == 0:
					kws := []string{"wifi", fmt.Sprint(rng.Intn(100))}
					if rng.Intn(50) == 0 {
						kws = append(kws, strings.Repeat("k", 200))
					}
					mine = append(mine, st.put(yask.Query{Keywords: kws, K: g}))
				case op < 8:
					if q, ok := st.get(mine[rng.Intn(len(mine))]); ok && q.K != g {
						t.Errorf("goroutine %d read another goroutine's session (K=%d)", g, q.K)
						return
					}
				case op < 9:
					j := rng.Intn(len(mine))
					st.drop(mine[j])
					mine = append(mine[:j], mine[j+1:]...)
				default:
					if n := st.len(); n > st.maxCount {
						t.Errorf("len %d exceeds the cap", n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkStore(t, st)
}

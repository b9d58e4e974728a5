// Package server implements YASK's browser–server deployment (Fig. 1 of
// the paper): an HTTP JSON API over the public engine, a server-side
// session cache of users' initial queries (kept until they stop asking
// follow-up why-not questions), a query log exposing refined-query
// parameters, penalties, and response times (Panel 5 of the demo UI),
// and an embedded single-page map client standing in for the Google
// Maps front end.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
	"unsafe"

	"github.com/yask-engine/yask"
)

// DefaultSessionTTL is how long a cached initial query survives without
// follow-up why-not activity.
const DefaultSessionTTL = 30 * time.Minute

// The session store's hard caps. Past either one, put evicts the least
// recently used sessions first, so a flood of one-shot queries (or a few
// with enormous keyword lists) bounds memory instead of growing it for a
// whole TTL.
const (
	// maxSessions bounds the number of live sessions.
	maxSessions = 1 << 17
	// maxSessionBytes bounds the keyword bytes all live sessions hold
	// together (see queryBytes).
	maxSessionBytes = 16 << 20
)

// session is one cached initial query. It holds the query only, not the
// results it returned: every follow-up re-runs against the engine's
// current snapshot, and the initial top-k it needs is the one the query
// left in the engine's result cache.
type session struct {
	id       string
	query    yask.Query
	bytes    int // queryBytes(query), charged against maxSessionBytes
	lastUsed time.Time
	// prev and next link the store's recency list.
	prev, next *session
}

// sessionStore caches initial queries by session ID, mirroring the
// paper's "the server caches users' initial spatial keyword queries
// until users give up asking follow-up why-not questions".
//
// Every operation is O(1) amortized. Sessions sit in a doubly linked
// list ordered by lastUsed, least recent at the front: get moves its
// session to the back, so expiry pops expired sessions off the front
// and stops at the first live one, and the caps evict from the front
// too. Nothing ever sweeps the whole map.
type sessionStore struct {
	mu  sync.Mutex
	ttl time.Duration
	now func() time.Time
	m   map[string]*session
	// head is the least recently used session, tail the most recent.
	head, tail *session
	// bytes is the sum of the live sessions' bytes.
	bytes int
	// maxCount and maxBytes are the caps, maxSessions and
	// maxSessionBytes outside tests.
	maxCount, maxBytes int
}

func newSessionStore(ttl time.Duration) *sessionStore {
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	return &sessionStore{
		ttl: ttl, now: time.Now, m: make(map[string]*session),
		maxCount: maxSessions, maxBytes: maxSessionBytes,
	}
}

// queryBytes is what a session's query is charged against
// maxSessionBytes: its keywords, each with its string header.
func queryBytes(q yask.Query) int {
	n := 0
	for _, kw := range q.Keywords {
		n += len(kw) + int(unsafe.Sizeof(kw))
	}
	return n
}

// put stores a new session and returns its ID.
func (st *sessionStore) put(q yask.Query) string {
	id := newSessionID()
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	st.expireLocked(now)
	s := &session{id: id, query: q, bytes: queryBytes(q), lastUsed: now}
	st.m[id] = s
	st.bytes += s.bytes
	st.pushBackLocked(s)
	for st.head != s && (len(st.m) > st.maxCount || st.bytes > st.maxBytes) {
		st.removeLocked(st.head)
	}
	return id
}

// get fetches a live session's query, refreshes its TTL and moves it to
// the back of the recency list.
func (st *sessionStore) get(id string) (yask.Query, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.m[id]
	if !ok {
		return yask.Query{}, false
	}
	now := st.now()
	if now.Sub(s.lastUsed) > st.ttl {
		st.removeLocked(s)
		return yask.Query{}, false
	}
	s.lastUsed = now
	st.unlinkLocked(s)
	st.pushBackLocked(s)
	return s.query, true
}

// drop removes a session (the user gave up asking why-not questions).
func (st *sessionStore) drop(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.m[id]; ok {
		st.removeLocked(s)
	}
}

// len returns the number of live sessions.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.expireLocked(st.now())
	return len(st.m)
}

// expireLocked pops expired sessions off the front of the recency list,
// stopping at the first live one. Callers hold st.mu.
func (st *sessionStore) expireLocked(now time.Time) {
	for st.head != nil && now.Sub(st.head.lastUsed) > st.ttl {
		st.removeLocked(st.head)
	}
}

// removeLocked deletes s from the map and the list. Callers hold st.mu.
func (st *sessionStore) removeLocked(s *session) {
	st.unlinkLocked(s)
	delete(st.m, s.id)
	st.bytes -= s.bytes
}

// pushBackLocked appends an unlinked s as the most recent session.
// Callers hold st.mu.
func (st *sessionStore) pushBackLocked(s *session) {
	s.prev, s.next = st.tail, nil
	if st.tail != nil {
		st.tail.next = s
	} else {
		st.head = s
	}
	st.tail = s
}

// unlinkLocked takes s out of the recency list. Callers hold st.mu.
func (st *sessionStore) unlinkLocked(s *session) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		st.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		st.tail = s.prev
	}
	s.prev, s.next = nil, nil
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable environment breakage.
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// logEntry is one record of the query log (Panel 5): query parameters,
// penalty for refined queries, and server response time.
type logEntry struct {
	Time      time.Time `json:"time"`
	Kind      string    `json:"kind"` // "query", "batch", "explain", "preference", "keyword"
	SessionID string    `json:"sessionId,omitempty"`
	Query     yask.Query
	// BatchSize is the number of queries of a "batch" entry (the Query
	// field holds only the first); zero for single-query kinds.
	BatchSize int     `json:"batchSize,omitempty"`
	Penalty   float64 `json:"penalty,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// queryLog is a bounded in-memory log of recent operations.
type queryLog struct {
	mu      sync.Mutex
	entries []logEntry
	cap     int
}

func newQueryLog(capacity int) *queryLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &queryLog{cap: capacity}
}

func (l *queryLog) add(e logEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, e)
	if len(l.entries) > l.cap {
		l.entries = l.entries[len(l.entries)-l.cap:]
	}
}

// recent returns up to n latest entries, newest first.
func (l *queryLog) recent(n int) []logEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > len(l.entries) {
		n = len(l.entries)
	}
	out := make([]logEntry, n)
	for i := 0; i < n; i++ {
		out[i] = l.entries[len(l.entries)-1-i]
	}
	return out
}

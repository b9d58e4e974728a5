package workload

import (
	"reflect"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
)

// testN keeps the oracle scans of session generation at a fraction of a
// millisecond each.
const testN = 2000

var testSizes = Sizes{
	ColdPerSecond: 200, ReaderPerSecond: 200, MutationPerSecond: 60,
	SessionsPerSecond: map[string]int{WhyNotPreference: 30, WhyNotKeyword: 30},
}

func testPlan(t *testing.T, name string, seed int64) *Plan {
	t.Helper()
	ds, err := Dataset(testN)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(name, ds, seed, 1, testSizes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSameSeedSameStreams(t *testing.T) {
	for _, name := range Names {
		a, b, c := testPlan(t, name, 7), testPlan(t, name, 7), testPlan(t, name, 8)
		if a.Digest() != b.Digest() {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a.Digest(), b.Digest())
		}
		if a.Digest() == c.Digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a.Digest())
		}
		if !reflect.DeepEqual(a.Sessions, b.Sessions) || !reflect.DeepEqual(a.Mutations, b.Mutations) {
			t.Errorf("%s: same digest but different streams", name)
		}
	}
	if _, err := New("no-such-workload", &dataset.Dataset{}, 1, 1, testSizes); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestQueryAndIngestStreamsArePrefixStable(t *testing.T) {
	// The traced run generates short streams and relies on them being
	// prefixes of the driver's long ones.
	ds, err := Dataset(testN)
	if err != nil {
		t.Fatal(err)
	}
	long := testSizes
	long.ColdPerSecond, long.MutationPerSecond = 4*testSizes.ColdPerSecond, 4*testSizes.MutationPerSecond
	for _, name := range []string{TopKCold, IngestDurable} {
		short, err := New(name, ds, 3, 1, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(name, ds, 3, 1, long)
		if err != nil {
			t.Fatal(err)
		}
		if name == TopKCold && !reflect.DeepEqual(short.Pool, full.Pool[:len(short.Pool)]) {
			t.Errorf("%s: the short query stream is not a prefix of the long one", name)
		}
		if !reflect.DeepEqual(short.Mutations, full.Mutations[:len(short.Mutations)]) {
			t.Errorf("%s: the short mutation stream is not a prefix of the long one", name)
		}
	}
}

func TestSessionsAskAboutObjectsJustOutsideTheResult(t *testing.T) {
	for _, name := range []string{WhyNotPreference, WhyNotKeyword} {
		p := testPlan(t, name, 5)
		if len(p.Sessions) < 30 {
			t.Fatalf("%s: only %d sessions", name, len(p.Sessions))
		}
		largest := 0
		for _, s := range p.Sessions {
			if len(s.Missing) > largest {
				largest = len(s.Missing)
			}
			deep := s.Query
			deep.K += 10
			ranked := p.OracleTopK(p.DS.Objects, deep)
			rank := map[uint32]int{}
			for i, id := range ranked {
				rank[id] = i + 1
			}
			seen := map[uint32]bool{}
			for _, id := range s.Missing {
				if r := rank[id]; r <= s.Query.K || r > s.Query.K+10 {
					t.Errorf("%s: missing object %d has rank %d for k=%d, want k+1…k+10", name, id, r, s.Query.K)
				}
				if seen[id] {
					t.Errorf("%s: missing object %d listed twice", name, id)
				}
				seen[id] = true
			}
		}
		if want := missingSize[name]; largest != want {
			t.Errorf("%s: largest |M| is %d, want %d", name, largest, want)
		}
	}
}

func TestMutationsStayInsideTheDataSpace(t *testing.T) {
	p := testPlan(t, IngestDurable, 9)
	space := p.DS.Objects.Space()
	inserts, deletes := 0, map[uint32]bool{}
	for _, m := range p.Mutations {
		if m.Insert == nil {
			if deletes[m.Delete] || int(m.Delete) >= testN {
				t.Errorf("delete of %d: repeated, or not an original object", m.Delete)
			}
			deletes[m.Delete] = true
			continue
		}
		inserts++
		in := m.Insert
		// Outside the space an insert would stretch the diagonal every
		// score is normalised by, and the mirror would have to follow.
		if in.X < space.Min.X || in.X > space.Max.X || in.Y < space.Min.Y || in.Y > space.Max.Y {
			t.Errorf("insert %s at (%v, %v) is outside %v", in.Name, in.X, in.Y, space)
		}
		if len(in.Keywords) == 0 {
			t.Errorf("insert %s has no keywords", in.Name)
		}
	}
	if inserts == 0 || len(deletes) == 0 {
		t.Errorf("%d inserts and %d deletes: want both", inserts, len(deletes))
	}
}

func TestMirrorFollowsAcknowledgedMutations(t *testing.T) {
	p := testPlan(t, IngestDurable, 9)
	m := p.NewMirror()
	for _, mu := range p.Mutations {
		if mu.Insert != nil && m.NextID() != uint32(m.Len()) {
			t.Fatalf("next ID %d with %d objects", m.NextID(), m.Len())
		}
		m.Apply(mu)
	}
	coll := m.Collection()
	if coll.Len() != m.Len() || coll.LiveLen() != m.Live() {
		t.Errorf("collection has %d objects (%d live), mirror says %d (%d)", coll.Len(), coll.LiveLen(), m.Len(), m.Live())
	}
	// A deleted object may no longer be anyone's answer.
	for _, q := range p.Pool[:50] {
		for _, id := range p.OracleTopK(coll, q) {
			for _, mu := range p.Mutations {
				if mu.Insert == nil && mu.Delete == id {
					t.Fatalf("oracle over the mirror returned deleted object %d", id)
				}
			}
		}
	}
}

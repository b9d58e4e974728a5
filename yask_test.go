package yask

import (
	"testing"
)

func demoObjects() []Object {
	return []Object{
		{Name: "Cafe Uno", X: 0, Y: 0, Keywords: []string{"coffee", "cafe"}},
		{Name: "Cafe Duo", X: 1, Y: 0, Keywords: []string{"coffee", "wifi"}},
		{Name: "Tea House", X: 0, Y: 1, Keywords: []string{"tea"}},
		{Name: "Far Cafe", X: 50, Y: 50, Keywords: []string{"coffee", "cafe"}},
		{Name: "Book Shop", X: 2, Y: 2, Keywords: []string{"books"}},
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Fatal("empty object list accepted")
	}
	if _, err := NewEngine([]Object{{Name: "x", Keywords: nil}}); err == nil {
		t.Fatal("keyword-less object accepted")
	}
}

func TestTopKPublicAPI(t *testing.T) {
	e, err := NewEngine(demoObjects())
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 5 {
		t.Fatalf("Len = %d", e.Len())
	}
	res, err := e.TopK(Query{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Score < res[1].Score {
		t.Fatal("results not sorted by score")
	}
	for _, r := range res {
		if r.SDist < 0 || r.SDist > 1 || r.TSim < 0 || r.TSim > 1 {
			t.Fatalf("components out of range: %+v", r)
		}
		if len(r.Keywords) == 0 || r.Name == "" {
			t.Fatalf("result missing metadata: %+v", r)
		}
	}
}

func TestTopKRejectsBadQueries(t *testing.T) {
	e, _ := NewEngine(demoObjects())
	if _, err := e.TopK(Query{Keywords: []string{"coffee"}, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := e.TopK(Query{K: 2}); err == nil {
		t.Error("no keywords accepted")
	}
	if _, err := e.TopK(Query{Keywords: []string{"coffee"}, K: 2, Wt: 1.5}); err == nil {
		t.Error("wt=1.5 accepted")
	}
}

func TestUnknownKeywordMatchesNothing(t *testing.T) {
	e, _ := NewEngine(demoObjects())
	res, err := e.TopK(Query{X: 0, Y: 0, Keywords: []string{"zebra"}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.TSim != 0 {
			t.Fatalf("unknown keyword matched %+v", r)
		}
	}
}

func TestObjectAccessors(t *testing.T) {
	e, _ := NewEngine(demoObjects())
	o, err := e.Object(0)
	if err != nil || o.Name != "Cafe Uno" {
		t.Fatalf("Object(0) = %+v, %v", o, err)
	}
	if _, err := e.Object(99); err == nil {
		t.Fatal("unknown ID accepted")
	}
	all := e.Objects()
	if len(all) != 5 || all[3].Name != "Far Cafe" {
		t.Fatalf("Objects() = %v", all)
	}
}

func TestWhyNotRoundTrip(t *testing.T) {
	e, _ := NewEngine(demoObjects())
	q := Query{X: 0, Y: 0, Keywords: []string{"coffee", "cafe"}, K: 2}
	res, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	inResult := map[ObjectID]bool{}
	for _, r := range res {
		inResult[r.ID] = true
	}
	if inResult[3] {
		t.Fatal("Far Cafe unexpectedly in top-2")
	}

	// Explanation.
	exps, err := e.Explain(q, []ObjectID{3})
	if err != nil {
		t.Fatal(err)
	}
	if exps[0].Rank <= 2 || exps[0].Detail == "" {
		t.Fatalf("bad explanation: %+v", exps[0])
	}

	// Rank accessor agrees with the explanation.
	rank, err := e.Rank(q, 3)
	if err != nil || rank != exps[0].Rank {
		t.Fatalf("Rank = %d, %v; explanation says %d", rank, err, exps[0].Rank)
	}

	// Preference refinement revives the missing cafe.
	pref, err := e.WhyNotPreference(q, []ObjectID{3}, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.TopK(pref.Query)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range got {
		if r.ID == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("preference refinement %+v did not revive object 3 (result %v)", pref, got)
	}

	// Keyword refinement revives it too.
	kw, err := e.WhyNotKeywords(q, []ObjectID{3}, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err = e.TopK(kw.Query)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, r := range got {
		if r.ID == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("keyword refinement %+v did not revive object 3 (result %v)", kw, got)
	}
}

func TestWhyNotRejectsResultMembers(t *testing.T) {
	e, _ := NewEngine(demoObjects())
	q := Query{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 2}
	res, _ := e.TopK(q)
	if _, err := e.Explain(q, []ObjectID{res[0].ID}); err == nil {
		t.Fatal("result member accepted as missing")
	}
}

func TestRefineOptionsLambda(t *testing.T) {
	if got := (RefineOptions{}).lambda(); got != 0.5 {
		t.Fatalf("default lambda = %v", got)
	}
	if got := (RefineOptions{Lambda: 0.7}).lambda(); got != 0.7 {
		t.Fatalf("explicit lambda = %v", got)
	}
	if got := (RefineOptions{LambdaIsZero: true}).lambda(); got != 0 {
		t.Fatalf("zero lambda = %v", got)
	}
}

func TestHKDemoEngine(t *testing.T) {
	e := HKDemoEngine()
	if e.Len() != 539 {
		t.Fatalf("demo engine has %d objects", e.Len())
	}
	// Bob's scenario (Example 1): top-3 coffee-ish query near TST.
	q := Query{X: 114.172, Y: 22.298, Keywords: []string{"wifi", "breakfast"}, K: 3}
	res, err := e.TopK(q)
	if err != nil || len(res) != 3 {
		t.Fatalf("demo query failed: %v (%d results)", err, len(res))
	}
	// Any object outside the result can be asked about.
	var missing ObjectID
	inResult := map[ObjectID]bool{}
	for _, r := range res {
		inResult[r.ID] = true
	}
	for id := ObjectID(0); int(id) < e.Len(); id++ {
		if !inResult[id] {
			missing = id
			break
		}
	}
	if _, err := e.Explain(q, []ObjectID{missing}); err != nil {
		t.Fatalf("Explain failed: %v", err)
	}
}

func TestConcurrentQueries(t *testing.T) {
	e := HKDemoEngine()
	q := Query{X: 114.17, Y: 22.30, Keywords: []string{"wifi"}, K: 5}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := e.TopK(q); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSimilarityModelSelection(t *testing.T) {
	e, _ := NewEngine(demoObjects())
	q := Query{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 3}
	jac, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	q.Similarity = "dice"
	dice, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(jac) != len(dice) {
		t.Fatalf("result sizes differ: %d vs %d", len(jac), len(dice))
	}
	q.Similarity = "cosine"
	if _, err := e.TopK(q); err == nil {
		t.Fatal("unknown similarity model accepted")
	}
}

func TestTopKBatchPublicAPI(t *testing.T) {
	e, err := NewEngine(demoObjects())
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 2},
		{X: 0, Y: 1, Keywords: []string{"tea"}, K: 1},
		{X: 2, Y: 2, Keywords: []string{"books"}, K: 3},
	}
	batch, err := e.TopKBatch(queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("got %d result sets, want %d", len(batch), len(queries))
	}
	for i, q := range queries {
		want, err := e.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j].ID != want[j].ID || batch[i][j].Score != want[j].Score {
				t.Fatalf("query %d rank %d: batch %+v != sequential %+v", i, j, batch[i][j], want[j])
			}
		}
	}

	// An invalid query fails the whole batch.
	bad := append([]Query{}, queries...)
	bad[1].K = 0
	if _, err := e.TopKBatch(bad, 2); err == nil {
		t.Fatal("batch with invalid query accepted")
	}
}

func TestWhyNotKeywordsBatchPublicAPI(t *testing.T) {
	e, err := NewEngine(demoObjects())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{X: 0, Y: 0, Keywords: []string{"coffee"}, K: 2}
	res, err := e.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	inResult := map[ObjectID]bool{}
	for _, r := range res {
		inResult[r.ID] = true
	}
	var missing, present ObjectID
	for id := ObjectID(0); int(id) < e.Len(); id++ {
		if inResult[id] {
			present = id
		} else {
			missing = id
		}
	}

	jobs := []WhyNotKeywordsJob{
		{Query: q, Missing: []ObjectID{missing}},
		{Query: q, Missing: []ObjectID{present}},           // already in result: per-job error
		{Query: Query{K: 1}, Missing: []ObjectID{missing}}, // malformed query: per-job error
	}
	refs, errs := e.WhyNotKeywordsBatch(jobs, RefineOptions{}, 2)
	if errs[0] != nil {
		t.Fatalf("valid job failed: %v", errs[0])
	}
	want, err := e.WhyNotKeywords(q, []ObjectID{missing}, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if refs[0] == nil || refs[0].Penalty != want.Penalty || refs[0].K != want.K {
		t.Fatalf("batch refinement %+v != sequential %+v", refs[0], want)
	}
	if errs[1] == nil || refs[1] != nil {
		t.Fatal("in-result missing object should fail its job only")
	}
	if errs[2] == nil || refs[2] != nil {
		t.Fatal("malformed query should fail its job only")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/yask-engine/yask/benchmark/workload"
)

// The smoke tests drive real yaskd and layers processes; TestMain builds
// both once, into a directory of its own.
var testBins struct{ yaskd, layers string }

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "yask-benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if testBins.yaskd, err = goBuild(yaskdPkg, dir); err == nil {
		testBins.layers, err = goBuild(layersPkg, dir)
	}
	code := 1
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeConfig is a run small enough for tier-1: 2,000 objects, a
// fraction of a second of load.
func smokeConfig(t *testing.T, name string, trace bool) config {
	return config{
		workload: name, seed: 4, seconds: 0.4, trace: trace, n: 2000,
		sizes: workload.Sizes{
			ColdPerSecond: 8000, ReaderPerSecond: 8000, MutationPerSecond: 800,
			SessionsPerSecond: map[string]int{workload.WhyNotPreference: 150, workload.WhyNotKeyword: 150},
		},
		yaskd: testBins.yaskd, layers: testBins.layers,
		workRoot: t.TempDir(), traceOut: t.TempDir() + "/trace.json",
	}
}

// TestSmokeAllWorkloads runs every workload end to end and traced, and
// holds the output to BENCHMARK.json: every declared metric printed,
// with its declared unit, and nothing undeclared.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := workload.LoadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.Names {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				t.Parallel()
				cfg := smokeConfig(t, name, trace)
				o, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !o.correct() {
					t.Errorf("%d of %d ops failed: %v", o.Failed, o.Attempted, o.Failures)
				}
				if err := complete(spec, o, trace); err != nil {
					t.Error(err)
				}
				if o.Kinds[headline(name)].N == 0 {
					t.Errorf("no %s samples: %+v", headline(name), o.Kinds)
				}
				if !trace {
					for _, m := range spec.EndToEnd {
						if o.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, o.Metrics[m.Name].Value)
						}
					}
					return
				}
				checkPredictions(t, name, o)
				checkReplayShape(t, name, o, cfg.traceOut)
			})
		}
	}
}

// checkPredictions asserts the must-not-move predictions of the README's
// interaction table that hold at any scale.
func checkPredictions(t *testing.T, name string, o *outcome) {
	v := func(metric string) float64 { return o.Metrics[metric].Value }
	if v("e2e.error_rate") != 0 || v("admission.shed") != 0 {
		t.Errorf("error rate %v, shed %v: want 0", v("e2e.error_rate"), v("admission.shed"))
	}
	switch name {
	case workload.TopKCold:
		if v("qcache.hit_rate") != 0 {
			t.Errorf("topk-cold hit the cache: rate %v", v("qcache.hit_rate"))
		}
	case workload.TopKZipf:
		if v("qcache.hit_rate") < 0.5 {
			t.Errorf("topk-zipf hit rate %v, want ≥ 0.5", v("qcache.hit_rate"))
		}
	case workload.IngestDurable:
		if v("wal.fsyncs_per_mutation") < 1 || v("qcache.orphaned_epochs") == 0 {
			t.Errorf("ingest-durable: %v fsyncs per mutation, %v orphaned epochs", v("wal.fsyncs_per_mutation"), v("qcache.orphaned_epochs"))
		}
	}
	if name == workload.TopKCold || name == workload.TopKZipf {
		if v("kcrtree.nodes_per_whynot") != 0 || v("wal.checkpoints") != 0 || v("wal.fsyncs_per_mutation") != 0 {
			t.Errorf("%s touched the KcR-tree or the WAL", name)
		}
	}
	if (name == workload.WhyNotPreference || name == workload.WhyNotKeyword) && v("kcrtree.nodes_per_whynot") == 0 {
		t.Errorf("%s never reached the KcR-tree", name)
	}
}

// checkReplayShape reads the traced run's span file and asserts that the
// replay met the cache the way the served workload does: topk-zipf
// replays hits (so its server and self times are not miss costs), every
// other workload replays misses only.
func checkReplayShape(t *testing.T, name string, o *outcome, spanFile string) {
	raw, err := os.ReadFile(spanFile)
	if err != nil {
		t.Fatalf("no span file: %v", err)
	}
	var spans []struct {
		Stream, Layer string
	}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	queries, misses := 0, 0
	for _, s := range spans {
		switch {
		case s.Stream == "query" && s.Layer == "server":
			queries++
		case s.Stream == "query" && s.Layer == "settree":
			misses++
		}
	}
	hitNs := o.Metrics["qcache.get_hit_ns_p50"].Value
	if queries == 0 {
		t.Fatal("the replay timed no queries")
	}
	if name == workload.TopKZipf {
		if misses*2 > queries || hitNs <= 0 {
			t.Errorf("topk-zipf replay: %d of %d queries missed the cache, hit p50 %v ns: want mostly hits", misses, queries, hitNs)
		}
	} else if misses != queries || hitNs != 0 {
		t.Errorf("%s replay: %d of %d queries missed the cache, hit p50 %v ns: want all misses", name, misses, queries, hitNs)
	}
}

// TestOracleRejectsTamperedAnswer checks the checker: a right answer
// passes, and one swapped pair, one dropped ID or one foreign ID fails.
func TestOracleRejectsTamperedAnswer(t *testing.T) {
	ds, err := workload.Dataset(2000)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := workload.New(workload.TopKCold, ds, 6, 0.01, workload.DefaultSizes)
	if err != nil {
		t.Fatal(err)
	}
	q := plan.Pool[0]
	q.K = 10
	right := plan.OracleTopK(ds.Objects, q)
	if len(right) != 10 {
		t.Fatalf("oracle returned %d results", len(right))
	}
	if bad := verifyTopK(plan, ds.Objects, []topkCheck{{q, right}}); len(bad) != 0 {
		t.Fatalf("right answer rejected: %v", bad)
	}
	swapped := append([]uint32(nil), right...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	foreign := append([]uint32(nil), right...)
	foreign[9] = right[9] + 1
	for what, got := range map[string][]uint32{"swapped": swapped, "short": right[:9], "foreign": foreign} {
		bad := verifyTopK(plan, ds.Objects, []topkCheck{{q, got}})
		if len(bad) != 1 || !strings.Contains(bad[0], "oracle") {
			t.Errorf("%s answer: verifyTopK reported %v", what, bad)
		}
	}
}

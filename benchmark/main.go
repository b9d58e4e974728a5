// Command benchmark is the repository's end-to-end benchmark: it builds
// ./cmd/yaskd, generates a seeded dataset and op streams, drives the
// real server process over loopback HTTP through one of five workloads,
// checks the answers, and prints every metric by name and unit. With
// -trace 1 it also replays a prefix of the same streams in-process
// (./layers) and reports where the time goes, layer by layer.
//
// Usage, from the repository root:
//
//	go run ./benchmark -workload topk-cold            # one workload
//	go run ./benchmark -workload all -out a.json      # all five, saved as a run-set
//	go run ./benchmark -workload topk-zipf -trace 1   # per-layer metrics
//	go run ./benchmark agree a.json b.json            # do two run-sets agree?
//
// BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/yask-engine/yask/benchmark/workload"
)

// specPath is where the metric and workload declarations live, relative
// to the directory the benchmark runs from.
const specPath = "BENCHMARK.json"

// runSet is what -out saves and agree compares: where and on what the
// numbers were taken, and one outcome per workload run.
type runSet struct {
	Provenance provenance `json:"provenance"`
	Runs       []*outcome `json:"runs"`
}

type provenance struct {
	NProc int `json:"nproc"`
	// ServerGOMAXPROCS is what yaskd runs with: it inherits the
	// benchmark's environment, so GOMAXPROCS if set, else every CPU.
	ServerGOMAXPROCS string `json:"yaskd_gomaxprocs"`
	CPU              string `json:"cpu"`
	Go               string `json:"go"`
	Commit           string `json:"commit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agree(os.Args[2:]))
	}
	spec, err := workload.LoadSpec(specPath)
	if err != nil {
		fatal(err)
	}
	name := flag.String("workload", "all", "workload to run, or all: "+strings.Join(workload.Names, ", "))
	seed := flag.Int64("seed", 1, "seed of every op stream (the dataset is the same for all seeds)")
	seconds := flag.Float64("seconds", float64(spec.RunSeconds), "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (served counters + in-process traced replay)")
	out := flag.String("out", "", "also save the run-set as JSON here, for agree")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad arguments; see -h"))
	}
	names := []string{*name}
	if *name == "all" {
		names = workload.Names
	}

	if err := os.MkdirAll(filepath.Join(buildDir, "out"), 0o755); err != nil {
		fatal(err)
	}
	// The generator shares two cores with the server it measures, and its
	// live heap (dataset, marshalled requests) makes each of its GC cycles
	// tens of milliseconds of marking. Fewer, later cycles keep that out
	// of the window; the box has memory to spare.
	debug.SetGCPercent(400)
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1, n: workload.DefaultN,
		sizes: workload.DefaultSizes, workRoot: buildDir,
	}
	if cfg.yaskd, err = goBuild(yaskdPkg, buildDir); err != nil {
		fatal(err)
	}
	if cfg.trace {
		if cfg.layers, err = goBuild(layersPkg, buildDir); err != nil {
			fatal(err)
		}
	}

	set := runSet{Provenance: where()}
	ok := true
	for _, w := range names {
		cfg.workload = w
		cfg.traceOut = filepath.Join(buildDir, "out", "trace-"+w+".json")
		o, err := run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w, err))
		}
		report(os.Stdout, spec, set.Provenance, o)
		if err := complete(spec, o, cfg.trace); err != nil {
			fatal(fmt.Errorf("%s: %w", w, err))
		}
		if err := enoughSamples(o, cfg.trace); err != nil {
			fatal(fmt.Errorf("%s: %w", w, err))
		}
		set.Runs = append(set.Runs, o)
		resultLine(os.Stdout, o)
		ok = ok && o.correct()
	}
	if *out != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// complete checks a run against the spec: exactly the declared metrics
// of its mode, each with the declared unit.
func complete(spec *workload.Spec, o *outcome, trace bool) error {
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	for _, m := range want {
		got, ok := o.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range o.Metrics {
		if !declared(want, name) {
			return fmt.Errorf("metric %s measured but not declared in %s", name, specPath)
		}
	}
	return nil
}

// enoughSamples fails a run that reports a p95 — the headline's end to
// end, the queries' in a traced run — with fewer than ten samples beyond
// it.
func enoughSamples(o *outcome, trace bool) error {
	kind := headline(o.Workload)
	if trace {
		kind = kindQuery
	}
	if got, need := o.Kinds[kind].N, workload.MinSamples(0.95); got < need {
		return fmt.Errorf("only %d %s samples: a p95 needs %d", got, kind, need)
	}
	return nil
}

func declared(ms []workload.SpecMetric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// where records the environment a run's numbers belong to.
func where() provenance {
	p := provenance{
		NProc: runtime.NumCPU(), ServerGOMAXPROCS: os.Getenv("GOMAXPROCS"),
		CPU: "unknown", Go: runtime.Version(), Commit: "unknown",
	}
	if p.ServerGOMAXPROCS == "" {
		p.ServerGOMAXPROCS = fmt.Sprint(p.NProc)
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout there is no commit to name; "unknown" stands.
	if sha, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(sha))
	}
	return p
}

// report prints one run for people.
func report(w *os.File, spec *workload.Spec, p provenance, o *outcome) {
	fmt.Fprintf(w, "\n== %s ==\n", o.Workload)
	for _, l := range spec.Workloads {
		if l.Name == o.Workload {
			fmt.Fprintf(w, "why: %s\n", l.Why)
		}
	}
	fmt.Fprintf(w, "load: closed loop, %d clients; n=%d, seed %d, digest %s; window %.2fs of %gs asked\n",
		maxClients, o.N, o.Seed, o.Digest, o.Wall, o.Seconds)
	fmt.Fprintf(w, "host: %d CPUs (yaskd GOMAXPROCS %s), %s, %s, commit %s\n",
		p.NProc, p.ServerGOMAXPROCS, p.CPU, p.Go, p.Commit)
	fmt.Fprintf(w, "run:")
	for _, ph := range []string{"generate", "boot", "warm-up", "window", "verify", "traced replay"} {
		if d, ok := o.Phases[ph]; ok {
			fmt.Fprintf(w, " %s %.1fs", ph, d)
		}
	}
	fmt.Fprintf(w, "\nops: %d attempted, %d failed\n", o.Attempted, o.Failed)
	for _, f := range o.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	kinds := make([]string, 0, len(o.Kinds))
	for k := range o.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	// A percentile without ten samples beyond it is one slow request's
	// latency, not a property of the server: it is not printed.
	tail := func(v float64, n int, p float64) string {
		if n < workload.MinSamples(p) {
			return "-"
		}
		return fmt.Sprintf("%.3f", v)
	}
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s\n", "request", "samples", "p50 ms", "p95 ms", "p99 ms")
	for _, k := range kinds {
		r := o.Kinds[k]
		fmt.Fprintf(w, "%-10s %8d %10.3f %10s %10s\n", k, r.N, r.P50, tail(r.P95, r.N, 0.95), tail(r.P99, r.N, 0.99))
	}
	names := make([]string, 0, len(o.Metrics))
	for name := range o.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := o.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// resultLine prints the one-line result object the benchmark contract
// asks for as the last line of output.
func resultLine(w *os.File, o *outcome) {
	line, err := json.Marshal(struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]workload.Metric `json:"metrics"`
	}{o.correct(), o.Attempted, o.Failed, o.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/yask-engine/yask/benchmark/workload"
)

// agree reads run-sets of one commit (saved with -out) and prints, for
// every end-to-end metric × workload, whether the runs agree within the
// metric's regression bound. The spread is the interquartile range over
// the median when there are at least four values, the full range over
// the median otherwise. "unresolved" means the benchmark cannot tell a
// regression of the bound's size from noise for that pair; the answer is
// to widen the bound in BENCHMARK.json and record the spread, not to
// drop the metric. It returns the process exit code.
func agree(paths []string) int {
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark agree A.json B.json [C.json ...]")
		return 2
	}
	spec, err := workload.LoadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// values[workload][metric] collects one value per run.
	values := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		var set runSet
		if err := json.Unmarshal(raw, &set); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
		for _, o := range set.Runs {
			if values[o.Workload] == nil {
				values[o.Workload] = map[string][]float64{}
			}
			for name, m := range o.Metrics {
				values[o.Workload][name] = append(values[o.Workload][name], m.Value)
			}
		}
	}
	unresolved := 0
	fmt.Printf("%-18s %-16s %4s %12s %8s %7s  %s\n", "workload", "metric", "runs", "median", "spread", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xs := values[w.Name][m.Name]
			if len(xs) < 2 {
				continue
			}
			med, spread := workload.Median(xs), spreadOf(xs)
			verdict := "pass"
			if spread > *m.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-18s %-16s %4d %12.4f %7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, len(xs), med, 100*spread, 100**m.Bound, verdict)
		}
	}
	if unresolved > 0 {
		fmt.Printf("%d metric × workload pairs unresolved\n", unresolved)
		return 1
	}
	return 0
}

// spreadOf is the run-to-run spread as a share of the median.
func spreadOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := workload.Median(s)
	if med == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return (hi - lo) / med
}

// quartiles returns the first and third quartile of sorted s by the
// exclusive method — what Python's statistics.quantiles(s, n=4) gives,
// which is how the benchmark's acceptance spread is defined.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

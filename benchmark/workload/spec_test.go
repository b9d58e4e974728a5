package workload

import (
	"regexp"
	"testing"
)

// TestBenchmarkJSON holds the repository's BENCHMARK.json to the
// benchmark contract's limits and to this package's workload list.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8 / 16 / 128",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]SpecMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	if len(spec.Workloads) != len(Names) {
		t.Fatalf("spec lists %d workloads, the generator knows %v", len(spec.Workloads), Names)
	}
	for i, w := range spec.Workloads {
		if w.Name != Names[i] {
			t.Errorf("workload %d is %q in the spec, %q in the generator", i, w.Name, Names[i])
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}

func TestValidateRejectsBrokenSpecs(t *testing.T) {
	good := func() *Spec {
		b := 0.1
		return &Spec{
			RunSeconds: 10,
			Workloads:  []SpecLoad{{"a", "why a"}, {"b", "why b"}},
			EndToEnd:   []SpecMetric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: &b}},
			PerLayer:   []SpecMetric{{Name: "x.y", Unit: "us", Better: "lower"}},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	wide := 0.3
	for what, breakIt := range map[string]func(*Spec){
		"one workload":          func(s *Spec) { s.Workloads = s.Workloads[:1] },
		"duplicate name":        func(s *Spec) { s.PerLayer[0].Name = "setup_s" },
		"bad name":              func(s *Spec) { s.PerLayer[0].Name = "x y" },
		"bad unit":              func(s *Spec) { s.PerLayer[0].Unit = "micro seconds" },
		"bad direction":         func(s *Spec) { s.PerLayer[0].Better = "faster" },
		"bound above a quarter": func(s *Spec) { s.EndToEnd[0].Bound = &wide },
		"unbounded end-to-end":  func(s *Spec) { s.EndToEnd[0].Bound = nil },
		"bounded per-layer":     func(s *Spec) { s.PerLayer[0].Bound = &wide },
		"no setup_s":            func(s *Spec) { s.EndToEnd[0].Name = "boot_s" },
		"run too long":          func(s *Spec) { s.RunSeconds = 61 },
	} {
		s := good()
		breakIt(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
}

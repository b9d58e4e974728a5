package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Spec is BENCHMARK.json: the command, the workloads, and every metric
// with its unit, direction and (end-to-end only) regression bound.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []SpecLoad   `json:"workloads"`
	EndToEnd   []SpecMetric `json:"end_to_end"`
	PerLayer   []SpecMetric `json:"per_layer"`
}

// SpecLoad names one workload and why it exists.
type SpecLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// carry none.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadSpec reads and validates the spec at path.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Validate checks the limits the benchmark contract puts on the file.
func (s *Spec) Validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := use(m.Name); err != nil {
			return err
		}
		if err := m.check(); err != nil {
			return err
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			return fmt.Errorf("metric %q: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf(`end_to_end needs "setup_s" with unit "s", better "lower"`)
	}
	for _, m := range s.PerLayer {
		if err := use(m.Name); err != nil {
			return err
		}
		if err := m.check(); err != nil {
			return err
		}
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %q must not carry a bound", m.Name)
		}
	}
	return nil
}

func (m SpecMetric) check() error {
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %q: bad unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %q: better must be lower or higher, not %q", m.Name, m.Better)
	}
	return nil
}

package workload

import (
	"reflect"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 30}, {0.2, 10}, {0.21, 20}, {0.95, 50}, {1, 50}, {0.0001, 10}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{50, 10, 40, 20, 30}) {
		t.Errorf("Percentile reordered its input: %v", xs)
	}
	// 100 samples 1…100: p99 is the 99th, with one sample beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := Percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1…100 = %v, want 99", got)
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median of three = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median of four = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median of nothing = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	span := []float64{10, 10, 10, 10}
	child := []float64{4, 10, 12} // the last is timer noise: a child "longer" than its parent
	got := SelfTimes(span, child)
	if want := []float64{6, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
	// Self times telescope: layer selves plus the innermost span give the
	// outermost span back, op by op.
	server, yask, core := []float64{100, 90}, []float64{70, 80}, []float64{50, 20}
	for i := range server {
		sum := SelfTimes(server, yask)[i] + SelfTimes(yask, core)[i] + core[i]
		if sum != server[i] {
			t.Errorf("op %d: selves sum to %v, span is %v", i, sum, server[i])
		}
	}
}

func TestMinSamples(t *testing.T) {
	if got := MinSamples(0.95); got != 200 {
		t.Errorf("MinSamples(0.95) = %d, want 200", got)
	}
	if got := MinSamples(0.99); got != 1000 {
		t.Errorf("MinSamples(0.99) = %d, want 1000", got)
	}
}

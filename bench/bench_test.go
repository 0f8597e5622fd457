package main

import (
	"math"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at test scale for one pass, untraced and
// traced, and holds what it prints to BENCHMARK.json: every printed
// metric is declared there with the same unit, and every declared one is
// printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range sp.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		declared[true][m.Name] = m.Unit
	}

	for _, wl := range workloads {
		digests := map[bool]string{}
		for _, traced := range []bool{false, true} {
			res, err := measure(wl, options{seed: 1, trace: traced, traceDir: t.TempDir(), workDir: t.TempDir(), small: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := declared[traced]
			for name, m := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", wl.name, name)
				}
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: printed %s [%s], BENCHMARK.json has it %v [%s]", wl.name, traced, name, m.Unit, ok, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", wl.name, traced, name, m.Value)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: declared metric %s not printed", wl.name, traced, name)
				}
			}
			digests[traced] = res.Digest
		}
		if digests[false] == "" || digests[false] != digests[true] {
			t.Errorf("%s: sim_digest untraced %q, traced %q", wl.name, digests[false], digests[true])
		}
	}
}

func TestQuantiles(t *testing.T) {
	one := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs     []float64
		p      float64
		want   float64
		q1, q3 float64 // Python's statistics.quantiles(xs, n=4)
	}{
		{one, 0.5, 5.5, 2.75, 8.25},
		{one, 0.9, 9.1, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5, 1.25, 3.75},
		{[]float64{3, 1}, 0.9, 2.8, 0.5, 3.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 0.5, 4, 2, 7},
		{[]float64{7}, 0.9, 7, 7, 7},
	} {
		if got := quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
		if q1, q3 := quartiles(c.xs); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{1, 1.5, 0.7, 1.2, 0.8, 1.4, 0.6, 1.3, 0.9, 1.1}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", base, false, "unchanged"},
		{"faster", scale(0.8), false, "improved"},
		{"faster on too few pairs", scale(0.8)[:9], false, "unchanged"},
		{"slower within bound", scale(1.05), false, "unchanged"},
		{"slower past bound", scale(1.2), false, "regressed"},
		{"lower throughput", scale(0.8), true, "regressed"},
		{"noisy", noisy, false, "unresolved"},
	} {
		if got, _ := verdict(base, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

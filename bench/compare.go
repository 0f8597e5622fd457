package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads back.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareCmd judges B (the change) against A (the parent) from reports
// of runs over every workload, one report per run. Runs pair up by
// position, so alternate the sides when making them.
func compareCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	aList := fs.String("a", "", "comma-separated reports of the parent")
	bList := fs.String("b", "", "comma-separated reports of the change")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *aList == "" || *bList == "" || fs.NArg() > 0 {
		return fmt.Errorf("usage: bench compare -a A1.json,... -b B1.json,... [-spec BENCHMARK.json]")
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		return err
	}
	load := func(list string) ([]report, error) {
		var reps []report
		for _, path := range strings.Split(list, ",") {
			var r report
			if err := readJSON(path, &r); err != nil {
				return nil, err
			}
			reps = append(reps, r)
		}
		return reps, nil
	}
	as, err := load(*aList)
	if err != nil {
		return err
	}
	bs, err := load(*bList)
	if err != nil {
		return err
	}
	compare(sp, as, bs, w)
	return nil
}

func compare(sp spec, as, bs []report, w io.Writer) {
	fmt.Fprintf(w, "%-14s %-18s %-36s %-36s %5s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "win", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := values(as, wl.Name, m.Name), values(bs, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, win := verdict(a, b, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-14s %-18s %-36s %-36s %5.2f  %s\n", wl.Name, m.Name, summary(a), summary(b), win, v)
		}
		// Same seed, same simulated output, unless the change models
		// differently: digests and model counters must repeat exactly.
		matched, differ := 0, 0
		for _, a := range as {
			for _, b := range bs {
				if a.Seed != b.Seed {
					continue
				}
				oa, okA := a.Workloads[wl.Name]
				ob, okB := b.Workloads[wl.Name]
				if !okA || !okB {
					continue
				}
				matched++
				if oa.SimDigest != ob.SimDigest {
					differ++
					fmt.Fprintf(w, "FLAG %s seed %d: sim_digest differs (%.12s vs %.12s)\n", wl.Name, a.Seed, oa.SimDigest, ob.SimDigest)
				}
				for _, name := range sortedKeys(oa.Metrics) {
					mb, ok := ob.Metrics[name]
					if ok && isCounter(name) && mb.Value != oa.Metrics[name].Value {
						differ++
						fmt.Fprintf(w, "FLAG %s seed %d: counter %s %v vs %v\n", wl.Name, a.Seed, name, oa.Metrics[name].Value, mb.Value)
					}
				}
			}
		}
		if matched > 0 && differ == 0 {
			fmt.Fprintf(w, "%-14s sim_digest and counters identical over %d same-seed report pairs\n", wl.Name, matched)
		}
	}
}

// isCounter reports whether a per-layer metric is a deterministic model
// or experiment counter rather than a host measurement.
func isCounter(name string) bool {
	for _, p := range []string{"cache.", "dcache.", "core.", "mainmem.", "cpu.", "exp.", "rescache."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return strings.HasPrefix(name, "dram.") && name != "dram.accesses_per_host_s"
}

func values(reps []report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		if m, ok := r.Workloads[workload].Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", quantile(xs, 0.5), q1, q3)
}

// minPairs is the fewest paired runs a gain may be claimed on.
const minPairs = 10

// verdict applies the landing rules: improved needs at least minPairs
// pairs, B winning nine in ten of them, and the medians differing by more
// than A's quartile spread; a spread wider than the bound leaves the row
// unresolved unless every B run beats every A run; regressed means B's
// median is worse than A's by more than the bound.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	sign := 1.0 // > 0 means B is worse
	if higherBetter {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*(x-y) < 0 } // x better than y
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	win := float64(wins) / float64(pairs)
	ma, mb := quantile(a, 0.5), quantile(b, 0.5)
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	spread := math.Max((a3-a1)/math.Abs(ma), (b3-b1)/math.Abs(mb))
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs >= minPairs && win >= 0.9 && better(mb, ma) && math.Abs(mb-ma) > a3-a1:
		return "improved", win
	case spread > bound && !allBetter:
		return "unresolved", win
	case sign*(mb-ma)/math.Abs(ma) > bound:
		return "regressed", win
	}
	return "unchanged", win
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

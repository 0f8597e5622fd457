// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them as aligned text tables (or CSV/JSON).
//
// Usage:
//
//	experiments [-mixes N] [-j N] [-scale bench|test] [-only fig8,fig9,...]
//	            [-seeds N] [-cache dir] [-format text|csv|json] [-keep-going]
//	            [-run-timeout d]
//
// By default it runs all 30 Table I workload mixes at the bench scale and
// prints Tables I–II and Figures 8–19 plus the extension studies. The
// figures are declarative specs (internal/exp) evaluated over a
// memoizing runner; with -cache (default $DCASIM_CACHE) results persist
// in a content-addressed directory, so a repeated invocation — locally
// or in CI — recomputes nothing.
//
// -j bounds the worker pool fanning out the independent simulation runs
// (default: all CPUs; -workers is an alias). Output is byte-identical at
// every -j: results commit in spec order, not completion order. On a
// terminal, stderr shows live progress (runs done, simulated vs cached,
// ETA); in batch logs it stays quiet.
//
// -seeds N evaluates every figure over N seed-derived replicates and
// renders each cell as mean ±95% CI; replicates are ordinary
// seed-patched configs, so they share the memo and persistent cache
// like any other run, and -seeds 1 (the default) is bit-identical to
// the unreplicated engine.
//
// -keep-going continues past a failing figure (and past failing runs
// inside each figure), prints every failure, and exits nonzero at the
// end; with a cache attached every successful run still persists, so a
// rerun after a fix recomputes only what is missing. -run-timeout arms
// a per-run watchdog against hung simulations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"dcasim"
	"dcasim/internal/config"
	"dcasim/internal/exp"
	"dcasim/internal/rescache"
	"dcasim/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		nmixes   = flag.Int("mixes", 30, "number of Table I mixes to evaluate (1-30)")
		workers  = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		scale    = flag.String("scale", "bench", "configuration scale: bench or test")
		only     = flag.String("only", "", "comma-separated subset, e.g. tableI,fig8,fig18")
		seed     = flag.Uint64("seed", 1, "base random seed")
		seeds    = flag.Int("seeds", 1, "seeded replicates per figure cell, rendered as mean ±95% CI (1 = single run)")
		cacheDir = flag.String("cache", os.Getenv("DCASIM_CACHE"), "persistent result cache directory (default $DCASIM_CACHE; empty = no cache)")
		format   = flag.String("format", "text", "table output format: text, csv, or json")
		keep     = flag.Bool("keep-going", false, "continue past failing figures, report every failure, exit nonzero at the end")
		runTO    = flag.Duration("run-timeout", 0, "per-run watchdog: fail a simulation that exceeds this (0 = off)")
	)
	flag.IntVar(workers, "workers", *workers, "alias for -j")
	flag.Parse()

	// Validate before any simulation: a typo must not cost a full
	// bench-scale sweep before failing at the first table.
	if err := stats.CheckFormat(*format); err != nil {
		log.Fatal(err)
	}
	if err := exp.ValidateWorkers(*workers); err != nil {
		log.Fatal(err)
	}
	if err := exp.ValidateReplicates(*seeds); err != nil {
		log.Fatal(err)
	}

	cfg, err := config.ParsePreset(*scale)
	if err != nil || *scale == "paper" {
		log.Fatalf("unknown scale %q (want bench or test)", *scale)
	}
	cfg.Seed = *seed

	mixes := dcasim.TableIMixes()
	if *nmixes < 1 || *nmixes > len(mixes) {
		log.Fatalf("mixes must be in 1..%d", len(mixes))
	}
	mixes = mixes[:*nmixes]

	runner := dcasim.NewRunner(cfg, mixes, *workers)
	runner.SetProgress(exp.StderrProgress())
	runner.SetKeepGoing(*keep)
	runner.SetRunTimeout(*runTO)
	runner.SetReplicates(*seeds)
	if *cacheDir != "" {
		cache, err := rescache.Open(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		runner.SetCache(cache)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			want[strings.ToLower(strings.TrimSpace(f))] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[strings.ToLower(name)] }

	type entry struct {
		name  string
		title string
		run   func() (*stats.Table, error)
	}
	entries := []entry{
		{"tableI", "Table I: workload groupings", func() (*stats.Table, error) { return exp.TableI(mixes), nil }},
		{"tableII", "Table II: system parameters", func() (*stats.Table, error) { return runner.TableII(), nil }},
	}
	for _, spec := range exp.Figures {
		spec := spec
		entries = append(entries, entry{spec.Name, spec.Title,
			func() (*stats.Table, error) { return runner.Table(spec) }})
	}

	// A typoed -only name must fail loudly, not silently select nothing
	// (an empty selection would exit 0 and turn a CI smoke green while
	// exercising zero simulations).
	known := map[string]bool{}
	var names []string
	for _, e := range entries {
		known[strings.ToLower(e.name)] = true
		names = append(names, e.name)
	}
	for w := range want {
		if !known[w] {
			log.Fatalf("unknown -only entry %q (have %s)", w, strings.Join(names, ","))
		}
	}

	start := time.Now()
	failed := false
	for _, e := range entries {
		if !selected(e.name) {
			continue
		}
		t0 := time.Now()
		tbl, err := e.run()
		if err != nil {
			if !*keep {
				log.Fatalf("%s: %v", e.name, err)
			}
			// Keep-going: report, skip this figure's output, and carry
			// on — later figures may share runs that already succeeded.
			log.Printf("%s: %v", e.name, err)
			failed = true
			continue
		}
		switch *format {
		case "text":
			fmt.Printf("== %s ==\n", e.title)
			if err := tbl.Write(os.Stdout, *format); err != nil {
				log.Fatal(err)
			}
		case "csv":
			fmt.Printf("# %s\n", e.title)
			if err := tbl.Write(os.Stdout, *format); err != nil {
				log.Fatal(err)
			}
		case "json":
			data, err := json.Marshal(struct {
				Name  string       `json:"name"`
				Title string       `json:"title"`
				Table *stats.Table `json:"table"`
			}{e.name, e.title, tbl})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s\n", data)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.name, time.Since(t0).Round(time.Millisecond))
		fmt.Println()
	}
	exp.WarnCacheErr(os.Stderr, runner)
	fmt.Fprintf(os.Stderr, "[all selected experiments done in %v over %d mixes at -j %d; %d simulations executed, %d cache hits]\n",
		time.Since(start).Round(time.Millisecond), len(mixes), *workers, runner.SimRuns(), runner.CacheHits())
	if failed {
		os.Exit(1)
	}
}

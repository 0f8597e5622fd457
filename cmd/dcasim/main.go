// Command dcasim runs a single simulation and prints its results: per-core
// IPC, DRAM-cache behaviour, row-buffer statistics, and controller
// counters. It is the quickest way to inspect one configuration.
//
// Usage:
//
//	dcasim [-design cd|rod|dca] [-alg name] [-org sa|dm] [-remap] [-lee]
//	       [-tagkb N] [-bench m1,m2,m3,m4] [-instr N]
//	       [-scale bench|test|paper] [-seed N] [-seeds N] [-config cfg.json]
//	       [-save-config cfg.json] [-cache dir] [-run-timeout d]
//
//	dcasim sweep -spec spec.json [-cache dir] [-j N] [-seeds N]
//	             [-format text|csv|json] [-keep-going] [-run-timeout d]
//
// -config loads a scenario written by -save-config (or by hand): the
// file is the complete serialized configuration, and any flags given
// explicitly alongside it override the loaded values. -cache reads and
// writes the persistent content-addressed result cache (default from
// $DCASIM_CACHE), so repeating a run is free.
//
// The sweep subcommand evaluates a declarative sweep spec — a base
// config plus named axes of JSON overrides, run over their cartesian
// product — against the same cache, fanning the points out over -j
// parallel workers (default: all CPUs; -workers is an alias). The
// rendered table is byte-identical at every -j, and on a terminal
// stderr shows live progress. -seeds N (both modes) runs N seed-derived
// replicates of each configuration and reports mean ±95% confidence
// cells; replicates are ordinary seed-patched configs, so they hit the
// same cache. -keep-going runs every point despite
// failures and reports them all (in point order, deterministically);
// because successes persist in the cache either way, rerunning a
// partly-failed sweep recomputes only what is missing. -run-timeout
// arms a per-run watchdog against hung simulations. See
// examples/sweep/ and the README.
//
// -alg selects the base scheduling algorithm: bliss, fr-fcfs (or frfcfs)
// or fcfs, in any case.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"dcasim"
	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/exp"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
	"dcasim/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcasim: ")
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		runSweep(os.Args[2:])
		return
	}
	var (
		design   = flag.String("design", "dca", "controller design: cd, rod, or dca")
		alg      = flag.String("alg", "bliss", "base scheduling algorithm: bliss, fr-fcfs, or fcfs")
		org      = flag.String("org", "sa", "cache organization: sa (set-associative) or dm (direct-mapped)")
		remap    = flag.Bool("remap", false, "enable XOR permutation remapping")
		lee      = flag.Bool("lee", false, "enable Lee DRAM-aware L2 writeback")
		tagKB    = flag.Int("tagkb", 0, "SRAM tag cache size in KB (0 = none; set-associative only)")
		benches  = flag.String("bench", "soplex,mcf,gcc,libquantum", "comma-separated benchmarks, one per core")
		instr    = flag.Int64("instr", 0, "instructions per core (0 = scale default)")
		scale    = flag.String("scale", "bench", "configuration scale: bench, test, or paper")
		seed     = flag.Uint64("seed", 1, "random seed")
		seeds    = flag.Int("seeds", 1, "seeded replicates: run N seed-derived replicates and report mean ±95% CI (1 = single run)")
		cfgPath  = flag.String("config", "", "load the full configuration from this JSON file (explicit flags still override)")
		savePath = flag.String("save-config", "", "write the resolved configuration to this JSON file and exit")
		cacheDir = flag.String("cache", os.Getenv("DCASIM_CACHE"), "persistent result cache directory (default $DCASIM_CACHE; empty = no cache)")
		workers  = flag.Int("j", runtime.NumCPU(), "runner worker-pool bound (a single run occupies one worker)")
		runTO    = flag.Duration("run-timeout", 0, "per-run watchdog: fail a simulation that exceeds this (0 = off)")
	)
	flag.IntVar(workers, "workers", *workers, "alias for -j")
	flag.Parse()
	if err := exp.ValidateWorkers(*workers); err != nil {
		log.Fatal(err)
	}
	if err := exp.ValidateReplicates(*seeds); err != nil {
		log.Fatal(err)
	}

	var cfg dcasim.Config
	var err error
	if *cfgPath != "" {
		if cfg, err = config.Load(*cfgPath); err != nil {
			log.Fatal(err)
		}
	} else if cfg, err = config.ParsePreset(*scale); err != nil {
		log.Fatal(err)
	}

	// With -config, a flag overrides the file only when given explicitly;
	// without it, every flag (default or not) configures the run as before.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	set := func(name string) bool { return *cfgPath == "" || explicit[name] }

	if set("scale") && *cfgPath != "" {
		log.Fatal("-scale and -config are mutually exclusive")
	}
	if set("design") {
		if cfg.Design, err = core.ParseDesign(*design); err != nil {
			log.Fatal(err)
		}
	}
	if set("alg") {
		if cfg.Algorithm, err = core.ParseAlgorithm(*alg); err != nil {
			log.Fatal(err)
		}
	}
	if set("org") {
		if cfg.Org, err = dcache.ParseOrg(*org); err != nil {
			log.Fatal(err)
		}
	}
	if set("remap") {
		cfg.XORRemap = *remap
	}
	if set("lee") {
		cfg.LeeWriteback = *lee
	}
	if set("tagkb") {
		cfg.TagCacheKB = *tagKB
	}
	if set("bench") {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}
	if set("seed") {
		cfg.Seed = *seed
	}
	if *instr > 0 {
		cfg.InstrPerCore = *instr
	}

	if *savePath != "" {
		if err := config.Save(*savePath, cfg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (hash %.12s…)\n", *savePath, cfg.Hash())
		return
	}

	if *seeds > 1 {
		if err := replicateReport(cfg, *seeds, *cacheDir, *workers, *runTO); err != nil {
			log.Fatal(err)
		}
		return
	}

	res, err := cachedRun(cfg, *cacheDir, *workers, *runTO)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("design=%v alg=%v org=%v remap=%v lee=%v tagcache=%dKB\n", cfg.Design, cfg.Algorithm, cfg.Org, cfg.XORRemap, cfg.LeeWriteback, cfg.TagCacheKB)
	for i, b := range res.Benchmarks {
		fmt.Printf("core %d  %-12s IPC %.4f  finished at %.0f ns\n", i, b, res.IPC[i], res.FinishNS[i])
	}
	dcs := res.DCache
	fmt.Printf("dram cache: reads %d (hit %.1f%%), writebacks %d, refills %d, victims %d\n",
		dcs.ReadReqs, 100*dcs.ReadHitRate(), dcs.WritebackReqs, dcs.RefillReqs, dcs.VictimWrites)
	fmt.Printf("            avg read latency %.1f ns, L2 miss latency %.1f ns\n",
		res.AvgReadLatencyNS(), res.L2MissLatencyNS)
	ds := res.DRAM
	fmt.Printf("dram array: %d accesses (%d reads / %d writes), %d tag accesses\n",
		ds.Accesses, ds.Reads, ds.Writes, ds.TagAccesses)
	fmt.Printf("            read row-buffer hit rate %.1f%%, %.1f accesses per turnaround (%d turnarounds)\n",
		100*ds.ReadRowHitRate(), res.AccessesPerTurnaround(), ds.Turnarounds)
	cs := res.Ctrl
	fmt.Printf("controller: PR %d, LR %d (OFS %d), writes %d, forced flushes %d\n",
		cs.PRIssued, cs.LRIssued, cs.OFSIssues, cs.WritesIssued, cs.ForcedFlushes)
	fmt.Printf("main mem:   %d reads, %d writes\n", res.MainMemReads, res.MainMemWrites)
	if res.TagCacheLookups > 0 {
		fmt.Printf("tag cache:  %d lookups, %.1f%% hit\n", res.TagCacheLookups,
			100*float64(res.TagCacheHits)/float64(res.TagCacheLookups))
	}
}

// cachedRun executes one simulation through the persistent cache when a
// directory is configured, so repeating a run costs nothing. It routes
// through the exp runner — the one tested implementation of the
// memo and cache rules, panic isolation, and the watchdog —
// rather than re-deriving them here. Only the bare default (no cache,
// no watchdog) calls the simulator directly.
func cachedRun(cfg dcasim.Config, cacheDir string, workers int, runTimeout time.Duration) (sim.Result, error) {
	if cacheDir == "" && runTimeout <= 0 {
		return sim.Run(cfg)
	}
	r := exp.NewRunner(cfg, nil, workers)
	r.SetRunTimeout(runTimeout)
	if cacheDir != "" {
		cache, err := rescache.Open(cacheDir)
		if err != nil {
			return sim.Result{}, err
		}
		r.SetCache(cache)
	}
	res, err := r.Run(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	if cacheDir != "" && r.SimRuns() == 0 {
		fmt.Fprintf(os.Stderr, "[cache hit %.12s… in %s]\n", cfg.Hash(), cacheDir)
	}
	exp.WarnCacheErr(os.Stderr, r)
	return res, nil
}

// replicateReport runs n seed-derived replicates of cfg through the
// runner (parallel across workers, deduplicated through the persistent
// cache when one is configured) and prints a summary table of mean
// ±95% CI cells for the headline metrics.
func replicateReport(cfg dcasim.Config, n int, cacheDir string, workers int, runTimeout time.Duration) error {
	r := exp.NewRunner(cfg, nil, workers)
	r.SetRunTimeout(runTimeout)
	if cacheDir != "" {
		cache, err := rescache.Open(cacheDir)
		if err != nil {
			return err
		}
		r.SetCache(cache)
	}
	cfgs := exp.ReplicateConfigs(cfg, n)
	if err := r.Ensure(cfgs); err != nil {
		exp.WarnCacheErr(os.Stderr, r)
		return err
	}
	results := make([]sim.Result, n)
	for k, c := range cfgs {
		res, err := r.Run(c) // memo hit: Ensure already computed every replicate
		if err != nil {
			return err
		}
		results[k] = res
	}

	fmt.Printf("design=%v org=%v remap=%v lee=%v tagcache=%dKB  (%d seeded replicates of seed %d)\n",
		cfg.Design, cfg.Org, cfg.XORRemap, cfg.LeeWriteback, cfg.TagCacheKB, n, cfg.Seed)
	tbl := stats.NewTable("metric", "mean ±ci95")
	sample := func(name string, f func(sim.Result) float64) {
		vals := make([]float64, n)
		for k := range results {
			vals[k] = f(results[k])
		}
		tbl.AddRowf(name, stats.Summarize(vals))
	}
	for i, b := range results[0].Benchmarks {
		sample(fmt.Sprintf("ipc%d (%s)", i, b), func(res sim.Result) float64 { return res.IPC[i] })
	}
	sample("avg read latency ns", func(res sim.Result) float64 { return res.AvgReadLatencyNS() })
	sample("L2 miss latency ns", func(res sim.Result) float64 { return res.L2MissLatencyNS })
	sample("read hit rate", func(res sim.Result) float64 { return res.DCache.ReadHitRate() })
	sample("read row-buffer hit rate", func(res sim.Result) float64 { return res.DRAM.ReadRowHitRate() })
	sample("accesses per turnaround", func(res sim.Result) float64 { return res.AccessesPerTurnaround() })
	fmt.Print(tbl.String())
	fmt.Fprintf(os.Stderr, "[%d replicates: %d simulated, %d cache hits]\n", n, r.SimRuns(), r.CacheHits())
	exp.WarnCacheErr(os.Stderr, r)
	return nil
}

// runSweep is the `dcasim sweep` subcommand.
func runSweep(args []string) {
	fs := flag.NewFlagSet("dcasim sweep", flag.ExitOnError)
	var (
		specPath  = fs.String("spec", "", "sweep spec JSON file (required)")
		cacheDir  = fs.String("cache", os.Getenv("DCASIM_CACHE"), "persistent result cache directory (default $DCASIM_CACHE; empty = no cache)")
		workers   = fs.Int("j", runtime.NumCPU(), "parallel simulation workers")
		format    = fs.String("format", "text", "output format: text, csv, or json")
		keepGoing = fs.Bool("keep-going", false, "run every point despite failures and report them all (successes still land in the cache, so a rerun resumes)")
		runTO     = fs.Duration("run-timeout", 0, "per-run watchdog: fail a simulation that exceeds this (0 = off)")
		seeds     = fs.Int("seeds", 0, "seeded replicates per point, reported as mean ±95% CI (0 = the spec's replicates value, default 1)")
	)
	fs.IntVar(workers, "workers", *workers, "alias for -j")
	if err := fs.Parse(args); err != nil {
		log.Fatal(err) // unreachable under ExitOnError; keeps the error visibly handled
	}
	if *specPath == "" {
		fs.Usage()
		log.Fatal("sweep: -spec is required")
	}
	if err := stats.CheckFormat(*format); err != nil {
		// Fail before the sweep runs, not after.
		log.Fatal(err)
	}
	if err := exp.ValidateWorkers(*workers); err != nil {
		log.Fatal(err)
	}
	if *seeds != 0 {
		if err := exp.ValidateReplicates(*seeds); err != nil {
			log.Fatal(err)
		}
	}
	spec, err := exp.LoadSweep(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	var cache *rescache.Cache
	if *cacheDir != "" {
		if cache, err = rescache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	tbl, runner, err := exp.RunSweep(spec, exp.SweepOpts{
		Workers:    *workers,
		Cache:      cache,
		Progress:   exp.StderrProgress(),
		KeepGoing:  *keepGoing,
		RunTimeout: *runTO,
		Replicates: *seeds,
	})
	if err != nil {
		exp.WarnCacheErr(os.Stderr, runner)
		log.Fatal(err)
	}
	if err := tbl.Write(os.Stdout, *format); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "[sweep %s: %d points at -j %d, %d simulated, %d cache hits]\n",
		spec.Name, len(spec.Points()), *workers, runner.SimRuns(), runner.CacheHits())
	exp.WarnCacheErr(os.Stderr, runner)
}

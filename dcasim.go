// Package dcasim is a discrete-event architectural simulator reproducing
// "DCA: a DRAM-Cache-Aware DRAM Controller" (Huang, Nagarajan & Joshi,
// SC '16). It models die-stacked DRAM caches with tags in DRAM, the three
// controller designs the paper studies (CD, ROD, and the proposed DCA),
// and the full surrounding system: BLISS scheduling, MAP-I miss
// prediction, XOR remapping, an SRAM tag cache, Lee's DRAM-aware L2
// writeback, synthetic SPEC-like multiprogrammed workloads, and a
// trace-driven out-of-order core model.
//
// The package is a thin facade over the internal packages: it re-exports
// the configuration, the simulation entry points, and the experiment
// drivers that regenerate every table and figure of the paper.
//
// Quick start:
//
//	cfg := dcasim.BenchConfig()
//	cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
//	cfg.Design = dcasim.DCA
//	res, err := dcasim.Run(cfg)
//
// See examples/ for complete programs and cmd/experiments for the
// evaluation harness.
package dcasim

import (
	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/exp"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
	"dcasim/internal/stats"
	"dcasim/internal/workload"
)

// Config is the full-system configuration (see internal/config).
type Config = config.Config

// Result carries the outputs of one simulation run.
type Result = sim.Result

// Design selects the DRAM cache controller organisation.
type Design = core.Design

// Controller designs under study.
const (
	CD  = core.CD
	ROD = core.ROD
	DCA = core.DCA
)

// Algorithm names the base scheduling policy: one of the three below.
type Algorithm = core.Algorithm

// Scheduling algorithms: the paper's BLISS baseline and the FR-FCFS and
// FCFS alternatives of its §IV-B.
const (
	AlgBLISS  = core.AlgBLISS
	AlgFRFCFS = core.AlgFRFCFS
	AlgFCFS   = core.AlgFCFS
)

// ParseAlgorithm resolves a policy name in any case, with "frfcfs"
// accepted for FR-FCFS.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Org selects the DRAM cache organization.
type Org = dcache.Org

// DRAM cache organizations.
const (
	SetAssoc     = dcache.SetAssoc
	DirectMapped = dcache.DirectMapped
)

// Mix is a four-core multiprogrammed workload.
type Mix = workload.Mix

// Runner memoizes simulation runs and produces the paper's tables and
// figures.
type Runner = exp.Runner

// Table is the aligned-text result table returned by experiment drivers.
type Table = stats.Table

// Sample is a replicated measurement cell: the mean over N seeded
// replicate runs and its 95% confidence half-width. Tables render it as
// "mean ±ci" in text and split it into two columns in CSV/JSON.
type Sample = stats.Sample

// PaperConfig returns the paper's Table II configuration (500 M
// instructions per core — use BenchConfig for tractable runs).
func PaperConfig() Config { return config.Paper() }

// BenchConfig returns the scaled configuration used by the benchmark
// harness; shapes and ratios follow Table II.
func BenchConfig() Config { return config.Bench() }

// TestConfig returns a small configuration for quick experiments.
func TestConfig() Config { return config.Test() }

// Run executes one simulation.
func Run(cfg Config) (Result, error) { return sim.Run(cfg) }

// AloneIPC measures a benchmark's alone IPC on the CD baseline, the
// denominator of weighted speedup.
func AloneIPC(cfg Config, bench string) (float64, error) { return sim.AloneIPC(cfg, bench) }

// TableIMixes returns the paper's 30 workload groupings (Table I).
func TableIMixes() []Mix { return workload.TableI() }

// BenchmarkNames lists the synthetic SPEC-like benchmarks.
func BenchmarkNames() []string { return workload.Names() }

// NewRunner builds an experiment runner over a base configuration and a
// set of workload mixes; workers <= 0 uses GOMAXPROCS.
func NewRunner(base Config, mixes []Mix, workers int) *Runner {
	return exp.NewRunner(base, mixes, workers)
}

// ResultCache is the persistent content-addressed result cache; attach
// one to a Runner with SetCache to make repeated evaluations free.
type ResultCache = rescache.Cache

// OpenResultCache opens (creating if needed) a result cache directory.
func OpenResultCache(dir string) (*ResultCache, error) { return rescache.Open(dir) }

// SweepSpec is a serializable scenario sweep (see internal/exp and
// examples/sweep).
type SweepSpec = exp.SweepSpec

// LoadSweep reads and validates a sweep spec file.
func LoadSweep(path string) (SweepSpec, error) { return exp.LoadSweep(path) }

// SweepOpts bundles the execution knobs of a sweep: workers (>= 1),
// an optional cache and progress observer, keep-going failure
// collection, the per-run watchdog, and the replicate count.
type SweepOpts = exp.SweepOpts

// RunSweep evaluates a sweep spec over a bounded worker pool; output is
// byte-identical at every worker count.
func RunSweep(spec SweepSpec, opts SweepOpts) (*Table, *Runner, error) {
	return exp.RunSweep(spec, opts)
}

// RunPanicError is the typed error a panicking simulation surfaces as:
// the panic fails its own run (carrying the config hash and captured
// stack) instead of crashing the whole evaluation process.
type RunPanicError = exp.RunPanicError

// RunTimeoutError reports a run that exceeded the configured per-run
// watchdog (Runner.SetRunTimeout / SweepOpts.RunTimeout).
type RunTimeoutError = exp.RunTimeoutError

// ProgressFunc observes experiment-engine run-completion events.
type ProgressFunc = exp.ProgressFunc

// StderrProgress returns the live stderr progress reporter (nil outside
// a terminal, which disables reporting).
func StderrProgress() ProgressFunc { return exp.StderrProgress() }

// ValidateWorkers rejects worker counts below 1.
func ValidateWorkers(j int) error { return exp.ValidateWorkers(j) }

// ValidateReplicates rejects replicate counts below 1 (the -seeds flag).
func ValidateReplicates(n int) error { return exp.ValidateReplicates(n) }

// ReplicateConfigs expands cfg into n seeded replicate configs: element
// 0 is cfg itself, element k shifts the seed by a fixed stride
// (config.ReplicateSeed), so replicates content-address and cache like
// any other config.
func ReplicateConfigs(cfg Config, n int) []Config { return exp.ReplicateConfigs(cfg, n) }

// LoadConfig reads a configuration written by SaveConfig (a versioned
// JSON envelope; see internal/config).
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// SaveConfig writes a configuration as versioned JSON.
func SaveConfig(path string, cfg Config) error { return config.Save(path, cfg) }

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"dcasim"
	"dcasim/internal/exp"
	"dcasim/internal/stats"
)

// A workload is one closed loop with a single client: set-up runs a few
// times before measuring, then passes run back to back, each starting
// after the previous one finished.
type workload struct {
	name string
	new  func(o options) instance
}

// instance is a workload bound to one seed and scale. A pass returns an
// error when the simulator fails or its output fails a check; the error
// counts the pass as failed.
type instance interface {
	setup(tr *tracer) error
	pass(tr *tracer) (passOut, error)
	close()
}

// passOut is what a pass reports.
type passOut struct {
	dur       time.Duration // host time inside the simulator's entry points
	digest    string        // sha256 over the pass's Results or rendered tables
	simRuns   int64         // simulations executed
	cacheHits int64         // runs served by the persistent result cache
	instr     float64       // simulated timed-region instructions
	result    *dcasim.Result
}

var workloads = []workload{
	{
		name: "fig8-cold",
		new:  newFig8,
	},
	{
		name: "timed-dca-sa",
		new: func(o options) instance {
			return newTimed(o, func(c *dcasim.Config) {
				c.Benchmarks = []string{"mcf", "lbm", "milc", "libquantum"}
				c.Design, c.Org = dcasim.DCA, dcasim.SetAssoc
			})
		},
	},
	{
		name: "writes-dm-lee",
		new: func(o options) instance {
			return newTimed(o, func(c *dcasim.Config) {
				c.Benchmarks = []string{"lbm", "lbm", "GemsFDTD", "bwaves"}
				c.Design, c.Org = dcasim.CD, dcasim.DirectMapped
				c.LeeWriteback = true
			})
		},
	},
	{
		name: "sweep-cached",
		new:  newSweep,
	},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCells fails on a rendered numeric cell that is not finite.
// Label cells and "-" (a ratio with no denominator) do not parse.
func checkCells(name string, tbl *stats.Table) error {
	for _, row := range tbl.Rows() {
		for _, cell := range row {
			if v, err := strconv.ParseFloat(cell, 64); err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				return fmt.Errorf("%s: non-finite cell %q in row %v", name, cell, row)
			}
		}
	}
	return nil
}

// figures renders each named figure on r, timing only the Figure calls.
func figures(r *dcasim.Runner, names []string, tr *tracer) (passOut, error) {
	var out passOut
	var parts [][]byte
	for _, name := range names {
		start := time.Now()
		tbl, err := r.Figure(name)
		d := time.Since(start)
		out.dur += d
		tr.span("figure "+name, start, d)
		if err != nil {
			return out, err
		}
		if err := checkCells(name, tbl); err != nil {
			return out, err
		}
		parts = append(parts, []byte(tbl.String()))
	}
	out.digest = digestOf(parts...)
	out.simRuns, out.cacheHits = r.SimRuns(), r.CacheHits()
	return out, nil
}

// --- fig8-cold ---

// fig8Mixes is how many Table I mixes a Fig. 8 pass covers.
const fig8Mixes = 1

// fig8 regenerates Fig. 8 at bench scale with a quarter of Bench's run
// budgets: the same machine shape and warm-up-to-timed ratio, in passes
// short enough (under a second) to take a steady median of many.
type fig8 struct {
	cfg, setupCfg dcasim.Config
}

func newFig8(o options) instance {
	f := &fig8{cfg: dcasim.BenchConfig(), setupCfg: dcasim.TestConfig()}
	f.cfg.InstrPerCore /= 4
	f.cfg.WarmMemops /= 4
	if o.small {
		f.cfg = dcasim.TestConfig()
	}
	f.cfg.Seed, f.setupCfg.Seed = o.seed, o.seed
	return f
}

func (f *fig8) run(cfg dcasim.Config, tr *tracer) (passOut, error) {
	r := dcasim.NewRunner(cfg, dcasim.TableIMixes()[:fig8Mixes], 1)
	r.SetProgress(tr.progress())
	return figures(r, []string{"fig8"}, tr)
}

// setup regenerates the same figure at test scale, which warms the
// process and times the per-run fixed costs.
func (f *fig8) setup(tr *tracer) error {
	_, err := f.run(f.setupCfg, tr)
	return err
}

func (f *fig8) pass(tr *tracer) (passOut, error) {
	out, err := f.run(f.cfg, tr)
	// Each mix runs on four cores under 3 designs x 2 organizations; every
	// other simulation is a one-core alone run.
	mixRuns := int64(6 * fig8Mixes)
	out.instr = float64(4*mixRuns+out.simRuns-mixRuns) * float64(f.cfg.InstrPerCore)
	return out, err
}

func (f *fig8) close() {}

// --- timed-* ---

// timed is one dcasim.Run whose host time is dominated by the timed
// region: a short warm-up and five times Bench's instruction budget.
type timed struct {
	cfg, setupCfg dcasim.Config
}

func newTimed(o options, mix func(*dcasim.Config)) instance {
	t := &timed{cfg: dcasim.BenchConfig(), setupCfg: dcasim.TestConfig()}
	t.cfg.InstrPerCore, t.cfg.WarmMemops = 1_500_000, 50_000
	if o.small {
		t.cfg = dcasim.TestConfig()
	}
	mix(&t.cfg)
	mix(&t.setupCfg)
	t.cfg.Seed, t.setupCfg.Seed = o.seed, o.seed
	return t
}

func (t *timed) run(cfg dcasim.Config, tr *tracer) (passOut, error) {
	start := time.Now()
	res, err := dcasim.Run(cfg)
	out := passOut{dur: time.Since(start), simRuns: 1}
	tr.run(start, out.dur)
	if err != nil {
		return out, err
	}
	if err := checkResult(res, cfg); err != nil {
		return out, err
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return out, err
	}
	out.digest = digestOf(enc)
	out.instr = float64(len(res.IPC)) * float64(cfg.InstrPerCore)
	out.result = &res
	return out, nil
}

// setup runs the same mix at test scale.
func (t *timed) setup(tr *tracer) error {
	_, err := t.run(t.setupCfg, tr)
	return err
}

func (t *timed) pass(tr *tracer) (passOut, error) { return t.run(t.cfg, tr) }

func (t *timed) close() {}

// checkResult is the output check of one simulation: every core finished
// with a positive finite IPC and every DRAM-cache read completed, except
// the few the cores' MSHRs can still hold when the last core retires
// its budget and the run stops.
func checkResult(res dcasim.Result, cfg dcasim.Config) error {
	cores := len(cfg.Benchmarks)
	if len(res.IPC) != cores || len(res.FinishNS) != cores {
		return fmt.Errorf("result has %d IPCs and %d finish times for %d cores", len(res.IPC), len(res.FinishNS), cores)
	}
	for i, ipc := range res.IPC {
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) || ipc <= 0 {
			return fmt.Errorf("core %d: IPC %v", i, ipc)
		}
		if f := res.FinishNS[i]; math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			return fmt.Errorf("core %d did not finish (finish time %v ns)", i, f)
		}
	}
	if open := res.DCache.ReadReqs - res.DCache.ReadsCompleted; open < 0 || open > int64(cores*cfg.CPU.MSHRs) {
		return fmt.Errorf("%d of %d DRAM-cache reads completed", res.DCache.ReadsCompleted, res.DCache.ReadReqs)
	}
	return nil
}

// --- sweep-cached ---

// sweepMixes is how many Table I mixes the sweep covers: two mixes at
// test scale fill the cache with 90 results in a few seconds.
const sweepMixes = 2

type sweep struct {
	cfg     dcasim.Config
	mixes   []dcasim.Mix
	names   []string
	workDir string

	cache  *dcasim.ResultCache
	dir    string
	sims   int64  // simulations the last set-up ran, one cache entry each
	digest string // rendered tables of the last set-up
}

func newSweep(o options) instance {
	s := &sweep{cfg: dcasim.TestConfig(), mixes: dcasim.TableIMixes()[:sweepMixes], names: exp.FigureNames(), workDir: o.workDir}
	if o.small {
		s.mixes = s.mixes[:1]
	}
	s.cfg.Seed = o.seed
	return s
}

// setup fills a fresh result cache by regenerating every figure cold.
// The cache of the last set-up serves the passes.
func (s *sweep) setup(tr *tracer) error {
	s.close()
	if err := os.MkdirAll(s.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.workDir, "rescache-")
	if err != nil {
		return err
	}
	s.dir = dir
	if s.cache, err = dcasim.OpenResultCache(dir); err != nil {
		return err
	}
	r := dcasim.NewRunner(s.cfg, s.mixes, 1)
	r.SetCache(s.cache)
	r.SetProgress(tr.progress())
	out, err := figures(r, s.names, tr)
	if err != nil {
		return err
	}
	s.digest = out.digest
	if err := r.CacheErr(); err != nil {
		return err
	}
	s.sims = out.simRuns
	return nil
}

func (s *sweep) pass(tr *tracer) (passOut, error) {
	r := dcasim.NewRunner(s.cfg, s.mixes, 1)
	r.SetCache(s.cache)
	r.SetProgress(tr.progress())
	out, err := figures(r, s.names, tr)
	switch {
	case err != nil:
		return out, err
	case out.simRuns != 0 || out.cacheHits != s.sims:
		return out, fmt.Errorf("warm pass simulated %d runs and read %d of %d from the cache", out.simRuns, out.cacheHits, s.sims)
	case out.digest != s.digest:
		return out, fmt.Errorf("warm pass rendered tables that differ from the cold set-up")
	}
	return out, nil
}

func (s *sweep) close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

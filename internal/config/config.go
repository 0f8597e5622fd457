// Package config assembles the full-system configuration (the paper's
// Table II) with presets at three scales: the paper's own parameters, a
// bench scale that reproduces every figure in minutes on a laptop, and a
// small test scale for the unit/integration suites.
package config

import (
	"fmt"
	"math"

	"dcasim/internal/addrmap"
	"dcasim/internal/cache"
	"dcasim/internal/core"
	"dcasim/internal/cpu"
	"dcasim/internal/dcache"
	"dcasim/internal/dram"
	"dcasim/internal/mainmem"
	"dcasim/internal/simtime"
	"dcasim/internal/workload"
)

// Config is the complete simulation configuration.
type Config struct {
	// Workload: one benchmark name per core (see workload.Names).
	Benchmarks []string

	// Controller and cache organization under study.
	Design       core.Design
	Org          dcache.Org
	XORRemap     bool // permutation-based remapping (Fig. 9)
	UseMAPI      bool // MAP-I miss predictor (on in all paper configs)
	LeeWriteback bool // Lee DRAM-aware L2 writeback (Fig. 19)
	TagCacheKB   int  // ATCache SRAM tag cache size; 0 disables (Fig. 18)
	BEARProbe    bool // BEAR writeback-probe elision (extension)
	// Algorithm overrides the base scheduling algorithm (default BLISS).
	Algorithm core.Algorithm
	// FlushFactor is DCA's OFS RRPC threshold (§IV-C; the paper uses
	// FF-4). The other controller parameters are the design's Table II
	// values (core.DefaultConfig).
	FlushFactor uint8

	// Die-stacked DRAM shape (Table II), in rows of dcache.RowBytes.
	CacheSizeBytes int64
	Channels       int
	Ranks          int
	Banks          int
	Timing         dram.Timing

	// Below the DRAM cache.
	MainMem mainmem.Config

	// Processor side.
	CPU      cpu.Params
	L1Bytes  int64
	L1Ways   int
	L2Bytes  int64
	L2Ways   int
	L2HitLat simtime.Time

	// Run scale.
	InstrPerCore int64
	WarmMemops   int64   // functional warm-up memory ops per core
	WSScale      float64 // working-set scaling relative to the paper
	Seed         uint64
}

// Paper returns the full Table II configuration: 256 MB DRAM cache,
// 4 channels × 16 banks with 4 KB rows, 8 MB L2, 4 GHz 8-wide cores. The
// instruction budget is the paper's 500 M per core — provided for
// completeness; use Bench for tractable runs.
func Paper() Config {
	return Config{
		Design:         core.DCA,
		Algorithm:      core.AlgBLISS,
		FlushFactor:    4,
		Org:            dcache.SetAssoc,
		UseMAPI:        true,
		CacheSizeBytes: 256 << 20,
		Channels:       4,
		Ranks:          1,
		Banks:          16,
		Timing:         dram.StackedDRAM(),
		MainMem:        mainmem.DefaultConfig(),
		CPU:            cpu.DefaultParams(),
		L1Bytes:        32 << 10,
		L1Ways:         2,
		L2Bytes:        8 << 20,
		L2Ways:         16,
		L2HitLat:       5 * simtime.Nanosecond, // 20 cycles at 4 GHz
		InstrPerCore:   500_000_000,
		WarmMemops:     8_000_000,
		WSScale:        1,
		Seed:           1,
	}
}

// Bench returns the scaled configuration used by the experiment harness:
// the machine shape is preserved (channels, banks, rows, timings, queue
// sizes) while capacities and the instruction budget shrink together so
// the cache-to-working-set ratios — and therefore hit rates and traffic
// mixes — stay representative.
func Bench() Config {
	c := Paper()
	c.CacheSizeBytes = 64 << 20
	c.L2Bytes = 2 << 20
	c.InstrPerCore = 300_000
	c.WarmMemops = 600_000
	c.WSScale = 0.25
	return c
}

// Test returns a small configuration for unit and integration tests.
func Test() Config {
	c := Paper()
	c.CacheSizeBytes = 4 << 20
	c.L2Bytes = 512 << 10
	c.InstrPerCore = 50_000
	c.WarmMemops = 40_000
	c.WSScale = 0.02
	return c
}

// DRAMGeometry returns the addrmap geometry implied by the config, with
// the 4 KB rows the DRAM-cache layout packs its sets and TADs into.
func (c Config) DRAMGeometry() addrmap.Geometry {
	return addrmap.Geometry{
		Channels:  c.Channels,
		Ranks:     c.Ranks,
		Banks:     c.Banks,
		RowBytes:  dcache.RowBytes,
		BlockSize: dcache.BlockBytes,
	}
}

// CtrlConfig returns the controller parameters: the design's Table II
// defaults with the config's base algorithm and flushing factor.
func (c Config) CtrlConfig() core.Config {
	cc := core.DefaultConfig(c.Design)
	cc.Algorithm = c.Algorithm
	cc.FlushFactor = c.FlushFactor
	return cc
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if len(c.Benchmarks) == 0 {
		return fmt.Errorf("config: no benchmarks")
	}
	if len(c.Benchmarks) > core.MaxApps {
		return fmt.Errorf("config: %d Benchmarks exceed the %d applications a controller serves", len(c.Benchmarks), core.MaxApps)
	}
	for _, b := range c.Benchmarks {
		if _, err := workload.Lookup(b); err != nil {
			return err
		}
	}
	if err := c.DRAMGeometry().Validate(); err != nil {
		return err
	}
	if c.Banks > core.MaxBanks/c.Ranks {
		return fmt.Errorf("config: Ranks %d × Banks %d exceeds the %d banks per channel a controller serves", c.Ranks, c.Banks, core.MaxBanks)
	}
	if err := c.CtrlConfig().Validate(); err != nil {
		return err
	}
	switch c.Org {
	case dcache.SetAssoc, dcache.DirectMapped:
	default:
		return fmt.Errorf("config: unknown Org %d (want %v or %v)", int(c.Org), dcache.SetAssoc, dcache.DirectMapped)
	}
	// The DRAM cache's layout rules, applied here so a bad size fails
	// before hashing and dispatch rather than inside a warm-up.
	if _, err := dcache.NewGeometry(c.Org, c.CacheSizeBytes, c.DRAMGeometry()); err != nil {
		return fmt.Errorf("config: CacheSizeBytes %d: %w", c.CacheSizeBytes, err)
	}
	switch {
	// A NaN or infinite float has no canonical encoding, so the config
	// could not be hashed.
	case math.IsNaN(c.WSScale) || math.IsInf(c.WSScale, 0):
		return fmt.Errorf("config: WSScale %v is not a finite number", c.WSScale)
	case math.IsInf(c.CPU.FreqGHz, 0):
		return fmt.Errorf("config: CPU.FreqGHz %v is not a finite number", c.CPU.FreqGHz)
	case c.InstrPerCore <= 0:
		return fmt.Errorf("config: non-positive instruction budget %d", c.InstrPerCore)
	case c.WSScale <= 0:
		return fmt.Errorf("config: non-positive working-set scale %v", c.WSScale)
	case c.WarmMemops < 0:
		return fmt.Errorf("config: negative warm-up budget WarmMemops %d", c.WarmMemops)
	case !(c.CPU.FreqGHz > 0): // NaN too
		return fmt.Errorf("config: non-positive CPU.FreqGHz %v", c.CPU.FreqGHz)
	case c.CPU.Width <= 0:
		return fmt.Errorf("config: non-positive CPU.Width %d", c.CPU.Width)
	case c.CPU.ROB <= 0:
		return fmt.Errorf("config: non-positive CPU.ROB %d", c.CPU.ROB)
	case c.CPU.MSHRs <= 0:
		return fmt.Errorf("config: non-positive CPU.MSHRs %d", c.CPU.MSHRs)
	case c.L1Bytes <= 0 || c.L2Bytes <= 0:
		return fmt.Errorf("config: non-positive cache sizes L1=%d L2=%d", c.L1Bytes, c.L2Bytes)
	case c.L1Ways <= 0:
		return fmt.Errorf("config: non-positive L1Ways %d", c.L1Ways)
	case c.L2Ways <= 0:
		return fmt.Errorf("config: non-positive L2Ways %d", c.L2Ways)
	case c.TagCacheKB < 0:
		return fmt.Errorf("config: negative tag cache size %d", c.TagCacheKB)
	case c.TagCacheKB > 0 && c.Org != dcache.SetAssoc:
		return fmt.Errorf("config: tag cache requires the set-associative organization")
	// A negative latency schedules an event before now, which the event
	// engine rejects with a panic.
	case c.L2HitLat < 0:
		return fmt.Errorf("config: negative L2HitLat %v", c.L2HitLat)
	case c.MainMem.Latency < 0:
		return fmt.Errorf("config: negative MainMem.Latency %v", c.MainMem.Latency)
	case c.MainMem.BlockTime < 0:
		return fmt.Errorf("config: negative MainMem.BlockTime %v", c.MainMem.BlockTime)
	}
	// The cache constructor's shape rules, applied here so a bad shape
	// fails before hashing and dispatch rather than inside a warm-up.
	if _, err := cache.SetCount(c.L1Bytes, dcache.BlockBytes, c.L1Ways); err != nil {
		return fmt.Errorf("config: L1Bytes %d over L1Ways %d: %w", c.L1Bytes, c.L1Ways, err)
	}
	if _, err := cache.SetCount(c.L2Bytes, dcache.BlockBytes, c.L2Ways); err != nil {
		return fmt.Errorf("config: L2Bytes %d over L2Ways %d: %w", c.L2Bytes, c.L2Ways, err)
	}
	return c.Timing.Validate()
}

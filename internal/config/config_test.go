package config

import (
	"strings"
	"testing"

	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/simtime"
)

func withMix(c Config) Config {
	c.Benchmarks = []string{"mcf", "lbm", "gcc", "milc"}
	return c
}

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"paper": withMix(Paper()),
		"bench": withMix(Bench()),
		"test":  withMix(Test()),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
}

func TestPaperMatchesTableII(t *testing.T) {
	c := Paper()
	if c.CacheSizeBytes != 256<<20 || c.Channels != 4 || c.Banks != 16 {
		t.Fatalf("stacked DRAM shape wrong: %+v", c)
	}
	if c.L2Bytes != 8<<20 || c.L1Bytes != 32<<10 {
		t.Fatalf("SRAM sizes wrong: L1=%d L2=%d", c.L1Bytes, c.L2Bytes)
	}
	if c.CPU.FreqGHz != 4 || c.CPU.Width != 8 || c.CPU.ROB != 192 {
		t.Fatalf("core parameters wrong: %+v", c.CPU)
	}
	if c.InstrPerCore != 500_000_000 {
		t.Fatalf("paper instruction budget %d, want 500M", c.InstrPerCore)
	}
	if !c.UseMAPI {
		t.Fatal("the paper's setups all use MAP-I")
	}
}

func TestCtrlConfigPerDesign(t *testing.T) {
	c := withMix(Bench())
	c.Design = core.ROD
	cc := c.CtrlConfig()
	if cc.ReadQueueCap != 32 || cc.WriteQueueCap != 96 {
		t.Fatalf("ROD queues %d/%d", cc.ReadQueueCap, cc.WriteQueueCap)
	}
	c.FlushFactor = 2
	if c.CtrlConfig().FlushFactor != 2 {
		t.Fatal("FlushFactor ignored")
	}
}

func TestValidationErrors(t *testing.T) {
	base := withMix(Test())
	cases := map[string]func(*Config){
		"no benchmarks":      func(c *Config) { c.Benchmarks = nil },
		"unknown benchmark":  func(c *Config) { c.Benchmarks = []string{"doom"} },
		"zero instructions":  func(c *Config) { c.InstrPerCore = 0 },
		"zero ws scale":      func(c *Config) { c.WSScale = 0 },
		"negative tag cache": func(c *Config) { c.TagCacheKB = -1 },
		"tag cache on DM":    func(c *Config) { c.TagCacheKB = 64; c.Org = dcache.DirectMapped },
		"bad channels":       func(c *Config) { c.Channels = 3 },
		"zero L2":            func(c *Config) { c.L2Bytes = 0 },
	}
	for name, mutate := range cases {
		c := base
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

// TestValidateRejectsBrokenCPU covers the processor and warm-up
// settings that would otherwise panic (Width 0 divides by zero),
// deadlock (MSHRs 0) or run to meaningless numbers, against every
// preset: each preset validates, each broken setting fails with an error
// naming its field, and a zero warm-up stays legal.
func TestValidateRejectsBrokenCPU(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"CPU.Width", func(c *Config) { c.CPU.Width = 0 }},
		{"CPU.MSHRs", func(c *Config) { c.CPU.MSHRs = 0 }},
		{"CPU.FreqGHz", func(c *Config) { c.CPU.FreqGHz = 0 }},
		{"CPU.ROB", func(c *Config) { c.CPU.ROB = 0 }},
		{"WarmMemops", func(c *Config) { c.WarmMemops = -5 }},
	}
	for _, scale := range []string{"paper", "bench", "test"} {
		preset, err := ParsePreset(scale)
		if err != nil {
			t.Fatal(err)
		}
		preset = withMix(preset)
		if err := preset.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", scale, err)
		}
		for _, tc := range cases {
			c := preset
			tc.mutate(&c)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s with broken %s: Validate = %v, want an error naming %s", scale, tc.field, err, tc.field)
			}
		}
		c := preset
		c.WarmMemops = 0
		if err := c.Validate(); err != nil {
			t.Errorf("%s with WarmMemops 0: %v", scale, err)
		}
	}
}

// TestValidateRejectsRuntimeFailures: configs that passed Validate and
// then panicked in the event engine (a negative latency) or building a
// controller (more banks per channel than it indexes), simulated
// nonsense (a negative DRAM timing, a zero burst) or failed only inside
// a run (an SRAM cache with no whole set, or with more ways than an LRU
// order word holds), and a flushing factor past the RRPC's range, are
// rejected with an error naming the field. Zero turnarounds stay legal.
func TestValidateRejectsRuntimeFailures(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"L2HitLat", func(c *Config) { c.L2HitLat = -simtime.Nanosecond }},
		{"MainMem.Latency", func(c *Config) { c.MainMem.Latency = -simtime.Nanosecond }},
		{"MainMem.BlockTime", func(c *Config) { c.MainMem.BlockTime = -simtime.Nanosecond }},
		{"TBurst", func(c *Config) { c.Timing.TBurst = 0 }},
		{"TRCD", func(c *Config) { c.Timing.TRCD = -simtime.Nanosecond }},
		{"L1Ways", func(c *Config) { c.L1Ways = 0 }},
		{"L2Ways", func(c *Config) { c.L2Ways = -1 }},
		{"L1Bytes", func(c *Config) { c.L1Bytes = 64 }},                     // one block over two ways
		{"L2Bytes", func(c *Config) { c.L2Bytes = 24 * 64 }},                // 24 blocks over 16 ways
		{"L1Ways", func(c *Config) { c.L1Ways, c.L1Bytes = 17, 4*17*64 }},   // 4 whole sets of 17 ways
		{"L2Ways", func(c *Config) { c.L2Ways, c.L2Bytes = 17, 512*17*64 }}, // 512 whole sets of 17 ways
		{"CacheSizeBytes", func(c *Config) { c.CacheSizeBytes = -4096 }},
		{"CacheSizeBytes", func(c *Config) { c.CacheSizeBytes = 0 }},
		{"CacheSizeBytes", func(c *Config) { c.CacheSizeBytes = 4096 + 64 }}, // not a whole row
		{"FlushFactor", func(c *Config) { c.FlushFactor = 8 }},               // past the 3-bit RRPC range
		{"Banks", func(c *Config) { c.Ranks, c.Banks = 4, 32 }},              // 128 banks per channel
	}
	for _, tc := range cases {
		c := withMix(Test())
		tc.mutate(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("broken %s: Validate = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
	c := withMix(Test())
	c.Timing.TWTR, c.Timing.TRTW = 0, 0
	if err := c.Validate(); err != nil {
		t.Errorf("zero TWTR and TRTW: %v", err)
	}
}

func TestDRAMGeometry(t *testing.T) {
	g := Paper().DRAMGeometry()
	if g.BlocksPerRow() != 64 {
		t.Fatalf("blocks per row = %d, want 64", g.BlocksPerRow())
	}
}

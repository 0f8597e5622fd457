package config

import (
	"strings"
	"testing"

	"dcasim/internal/core"
	"dcasim/internal/dcache"
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
	if c.CacheSizeBytes != 256<<20 || c.Channels != 4 || c.Banks != 16 || c.RowBytes != 4096 {
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
	override := core.DefaultConfig(core.DCA)
	override.FlushFactor = 2
	c.Ctrl = &override
	if c.CtrlConfig().FlushFactor != 2 {
		t.Fatal("override ignored")
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

func TestReplayPath(t *testing.T) {
	c := Test()
	if p := c.ReplayPath(); p != "" {
		t.Fatalf("fresh config replays %q", p)
	}
	c.TracePath = "runs/mix.dct"
	if p := c.ReplayPath(); p != "runs/mix.dct" {
		t.Fatalf("TracePath not surfaced: %q", p)
	}
	c = Test()
	c.Benchmarks = []string{TracePrefix + "foo.dct"}
	if p := c.ReplayPath(); p != "foo.dct" {
		t.Fatalf("trace: shorthand parsed as %q", p)
	}
	// A replay config validates without benchmarks, budgets, or scale:
	// the trace header supplies them.
	c.Benchmarks = nil
	c.TracePath = "foo.dct"
	c.InstrPerCore = 0
	c.WSScale = 0
	if err := c.Validate(); err != nil {
		t.Fatalf("replay config rejected: %v", err)
	}
}

func TestReplayValidationErrors(t *testing.T) {
	cases := map[string]func(*Config){
		"trace mixed with benchmarks": func(c *Config) {
			c.Benchmarks = []string{"mcf", TracePrefix + "foo.dct"}
		},
		"TracePath alongside benchmarks": func(c *Config) {
			c.Benchmarks = []string{"mcf"}
			c.TracePath = "foo.dct"
		},
	}
	for name, mutate := range cases {
		c := Test()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestDRAMGeometry(t *testing.T) {
	g := Paper().DRAMGeometry()
	if g.BlocksPerRow() != 64 {
		t.Fatalf("blocks per row = %d, want 64", g.BlocksPerRow())
	}
}

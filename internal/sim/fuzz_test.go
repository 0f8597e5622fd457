package sim

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/simtime"
	"dcasim/internal/workload"
)

// fuzzField is one Config field FuzzRun edits: an edit draws v from
// lo..hi and set stores it. Each range reaches past the legal values,
// so Validate's rejections are fuzzed too, and bounds every size, so a
// run allocates at most a few MB.
type fuzzField struct {
	name   string
	lo, hi int64
	set    func(c *config.Config, v int64)
}

// fuzzCtrl returns c's controller override, first setting it to the
// defaults CtrlConfig gives, as a Ctrl patch does.
func fuzzCtrl(c *config.Config) *core.Config {
	if c.Ctrl == nil {
		cc := c.CtrlConfig()
		c.Ctrl = &cc
	}
	return c.Ctrl
}

// milli maps a drawn value to a float in thousandths.
func milli(v int64) float64 { return float64(v) / 1000 }

func psField(name string, hi int64, field func(*config.Config) *simtime.Time) fuzzField {
	return fuzzField{name, -2000, hi, func(c *config.Config, v int64) { *field(c) = simtime.Time(v) }}
}

func intField(name string, lo, hi, unit int64, field func(*config.Config) *int) fuzzField {
	return fuzzField{name, lo, hi, func(c *config.Config, v int64) { *field(c) = int(v * unit) }}
}

func boolField(name string, field func(*config.Config) *bool) fuzzField {
	return fuzzField{name, 0, 1, func(c *config.Config, v int64) { *field(c) = v == 1 }}
}

func ctrlFrac(name string, field func(*core.Config) *float64) fuzzField {
	return fuzzField{name, -100, 1100, func(c *config.Config, v int64) { *field(fuzzCtrl(c)) = milli(v) }}
}

// fuzzAlgorithms are the scheduling algorithms FuzzRun picks from.
var fuzzAlgorithms = []core.Algorithm{core.AlgBLISS, core.AlgFRFCFS, core.AlgFCFS}

// fuzzFields lists every field FuzzRun may edit. An input names a field
// by a byte taken modulo the table's length, so editing the table
// re-points corpus bytes: appending a row re-points every byte at or
// above the old length, and removing one re-points the rows after it
// too. Only FuzzRun's named seeds, which fuzzInput encodes by field
// name, stay stable.
var fuzzFields = []fuzzField{
	{"Design", -1, int64(core.DCA) + 1, func(c *config.Config, v int64) {
		c.Design = core.Design(v)
		if c.Ctrl != nil {
			c.Ctrl.Design = c.Design
		}
	}},
	{"Org", -1, 2, func(c *config.Config, v int64) { c.Org = dcache.Org(v) }},
	boolField("XORRemap", func(c *config.Config) *bool { return &c.XORRemap }),
	boolField("UseMAPI", func(c *config.Config) *bool { return &c.UseMAPI }),
	boolField("LeeWriteback", func(c *config.Config) *bool { return &c.LeeWriteback }),
	intField("TagCacheKB", -1, 256, 1, func(c *config.Config) *int { return &c.TagCacheKB }),
	boolField("BEARProbe", func(c *config.Config) *bool { return &c.BEARProbe }),
	// The last value names no policy.
	{"Algorithm", 0, int64(len(fuzzAlgorithms)), func(c *config.Config, v int64) {
		c.Algorithm = "nosuchpolicy"
		if v < int64(len(fuzzAlgorithms)) {
			c.Algorithm = fuzzAlgorithms[v]
		}
		if c.Ctrl != nil {
			c.Ctrl.Algorithm = c.Algorithm
		}
	}},
	{"CacheSizeBytes", -1, 2048, func(c *config.Config, v int64) { c.CacheSizeBytes = v << 12 }},
	intField("Channels", -1, 8, 1, func(c *config.Config) *int { return &c.Channels }),
	intField("Ranks", -1, 4, 1, func(c *config.Config) *int { return &c.Ranks }),
	intField("Banks", -1, 32, 1, func(c *config.Config) *int { return &c.Banks }),
	intField("RowBytes", -1, 256, dcache.BlockBytes, func(c *config.Config) *int { return &c.RowBytes }),
	psField("Timing.TRCD", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TRCD }),
	psField("Timing.TCAS", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TCAS }),
	psField("Timing.TRP", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TRP }),
	psField("Timing.TRAS", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TRAS }),
	psField("Timing.TWTR", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TWTR }),
	psField("Timing.TRTP", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TRTP }),
	psField("Timing.TRTW", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TRTW }),
	psField("Timing.TWR", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TWR }),
	psField("Timing.TBurst", 100_000, func(c *config.Config) *simtime.Time { return &c.Timing.TBurst }),
	intField("Ctrl.ReadQueueCap", -1, 128, 1, func(c *config.Config) *int { return &fuzzCtrl(c).ReadQueueCap }),
	intField("Ctrl.WriteQueueCap", -1, 128, 1, func(c *config.Config) *int { return &fuzzCtrl(c).WriteQueueCap }),
	ctrlFrac("Ctrl.WriteFlushLow", func(cc *core.Config) *float64 { return &cc.WriteFlushLow }),
	ctrlFrac("Ctrl.WriteFlushHigh", func(cc *core.Config) *float64 { return &cc.WriteFlushHigh }),
	ctrlFrac("Ctrl.ScheduleAllHigh", func(cc *core.Config) *float64 { return &cc.ScheduleAllHigh }),
	ctrlFrac("Ctrl.ScheduleAllLow", func(cc *core.Config) *float64 { return &cc.ScheduleAllLow }),
	{"Ctrl.FlushFactor", 0, 8, func(c *config.Config, v int64) { fuzzCtrl(c).FlushFactor = uint8(v) }},
	psField("MainMem.Latency", 1_000_000, func(c *config.Config) *simtime.Time { return &c.MainMem.Latency }),
	psField("MainMem.BlockTime", 100_000, func(c *config.Config) *simtime.Time { return &c.MainMem.BlockTime }),
	{"CPU.FreqGHz", -1000, 10_000, func(c *config.Config, v int64) { c.CPU.FreqGHz = milli(v) }},
	intField("CPU.Width", -1, 64, 1, func(c *config.Config) *int { return &c.CPU.Width }),
	intField("CPU.ROB", -1, 512, 1, func(c *config.Config) *int { return &c.CPU.ROB }),
	intField("CPU.MSHRs", -1, 64, 1, func(c *config.Config) *int { return &c.CPU.MSHRs }),
	{"L1Bytes", -1, 64, func(c *config.Config, v int64) { c.L1Bytes = v << 10 }},
	intField("L1Ways", -1, 16, 1, func(c *config.Config) *int { return &c.L1Ways }),
	{"L2Bytes", -1, 128, func(c *config.Config, v int64) { c.L2Bytes = v << 14 }},
	intField("L2Ways", -1, 32, 1, func(c *config.Config) *int { return &c.L2Ways }),
	psField("L2HitLat", 100_000, func(c *config.Config) *simtime.Time { return &c.L2HitLat }),
	{"InstrPerCore", -1, 5000, func(c *config.Config, v int64) { c.InstrPerCore = v }},
	{"WarmMemops", -1, 2000, func(c *config.Config, v int64) { c.WarmMemops = v }},
	{"WSScale", -10, 2000, func(c *config.Config, v int64) { c.WSScale = milli(v) }},
	{"Seed", 0, math.MaxUint32, func(c *config.Config, v int64) { c.Seed = uint64(v) }},
}

// fuzzMaxRows bounds the DRAM cache FuzzRun simulates, so its tag store
// stays near 1 MB whatever the row size.
const fuzzMaxRows = 2048

// fuzzConfig decodes a FuzzRun input. Its first byte gives the core
// count, 1 to 8, the next one byte per core that core's benchmark; then
// each 9-byte group edits one field: a field index and a big-endian
// value, taken modulo the field's range. A short input leaves the rest
// of config.Test() as it is, with budgets of 5 000 instructions and
// 2 000 warm-up memops per core.
func fuzzConfig(data []byte) config.Config {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	c := config.Test()
	c.InstrPerCore, c.WarmMemops = 5000, 2000
	names := workload.Names()
	c.Benchmarks = make([]string, 1+int(take(1)[0])%8)
	for i := range c.Benchmarks {
		c.Benchmarks[i] = names[int(take(1)[0])%len(names)]
	}
	for len(data) > 0 {
		f := fuzzFields[int(take(1)[0])%len(fuzzFields)]
		u := binary.BigEndian.Uint64(take(8))
		f.set(&c, f.lo+int64(u%uint64(f.hi-f.lo+1)))
	}
	return c
}

// fuzzEdit is one field edit of a seed input, by field name and value.
type fuzzEdit struct {
	name string
	v    int64
}

// fuzzInput encodes a FuzzRun input: the given benchmarks, one per core,
// then the edits in order.
func fuzzInput(tb testing.TB, benchmarks []string, edits ...fuzzEdit) []byte {
	b := []byte{byte(len(benchmarks) - 1)}
	for _, bench := range benchmarks {
		b = append(b, byte(slices.Index(workload.Names(), bench)))
	}
	for _, e := range edits {
		i := slices.IndexFunc(fuzzFields, func(f fuzzField) bool { return f.name == e.name })
		if i < 0 {
			tb.Fatalf("no fuzz field %s", e.name)
		}
		b = binary.BigEndian.AppendUint64(append(b, byte(i)), uint64(e.v-fuzzFields[i].lo))
	}
	return b
}

// FuzzRun checks that every config Validate accepts simulates: from a
// small test machine it edits the numeric fields, enums and booleans of
// Config and its Timing, CPU, MainMem and Ctrl, and requires that either
// Validate rejects the result or Run returns no error, one finite,
// positive IPC per core, and counters that pass checkAccounting.
func FuzzRun(f *testing.F) {
	mix := []string{"mcf", "lbm", "libquantum", "omnetpp"}
	for _, edits := range [][]fuzzEdit{
		nil,
		// Each once panicked in the event engine ("schedule at … before
		// now") after passing Validate.
		{{"L2HitLat", -1000}},
		{{"MainMem.Latency", -1000}},
		{{"Org", int64(dcache.DirectMapped)}, {"Design", int64(core.CD)}},
		{{"TagCacheKB", 64}, {"BEARProbe", 1}, {"XORRemap", 1}},
		{{"LeeWriteback", 1}, {"UseMAPI", 0}, {"Ctrl.FlushFactor", 7}},
		{{"Timing.TWTR", 0}, {"Timing.TRTW", 0}, {"Ctrl.ReadQueueCap", 1}, {"Ctrl.WriteQueueCap", 1}},
		// FuzzRun's first find: a CacheSizeBytes of -4 096 validated, then
		// panicked building the tag store.
		{{"CacheSizeBytes", -1}},
	} {
		f.Add(fuzzInput(f, mix, edits...))
	}
	f.Add(fuzzInput(f, []string{"lbm"}, fuzzEdit{"WarmMemops", 0}, fuzzEdit{"InstrPerCore", 1}))
	f.Add(fuzzInput(f, []string{"mcf", "mcf", "lbm", "lbm", "gcc", "milc", "astar", "bwaves"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		if cfg.Validate() != nil || cfg.CacheSizeBytes/int64(cfg.RowBytes) > fuzzMaxRows {
			return
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("validated config failed to run: %v", err)
		}
		if len(res.IPC) != len(cfg.Benchmarks) {
			t.Fatalf("%d IPCs for %d cores", len(res.IPC), len(cfg.Benchmarks))
		}
		for i, ipc := range res.IPC {
			if !(ipc > 0) || math.IsInf(ipc, 0) {
				t.Errorf("core %d: IPC %v, want a finite positive number", i, ipc)
			}
		}
		checkAccounting(t, cfg, res)
	})
}

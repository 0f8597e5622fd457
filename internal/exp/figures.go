package exp

import (
	"encoding/json"
	"fmt"

	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/stats"
	"dcasim/internal/workload"
)

var designs = []core.Design{core.CD, core.ROD, core.DCA}
var orgs = []dcache.Org{dcache.SetAssoc, dcache.DirectMapped}

// raw builds a JSON patch literal.
func raw(format string, args ...interface{}) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(format, args...))
}

// pins holds the paper-baseline values of every dimension the evaluation
// sweeps. Each figure's table patch starts from these so a figure always
// runs the paper's machine regardless of what the base config carries;
// rows and columns then override the dimensions that figure studies —
// exactly the fields the old hand-rolled run keys always set.
const pins = `"XORRemap":false,"LeeWriteback":false,"TagCacheKB":0,"Algorithm":"BLISS","BEARProbe":false`

// normToCD is the paper's normalization baseline for every speedup
// figure: the Conventional Design without remapping.
var normToCD = raw(`{"Design":"CD","XORRemap":false}`)

// designCols builds one weighted-speedup column per design, normalized
// to CD, with an optional remapping pass and header prefix ("XOR+").
func designCols(remaps []bool) []ColSpec {
	var cols []ColSpec
	for _, rm := range remaps {
		for _, d := range designs {
			name := d.String()
			if rm {
				name = "XOR+" + name
			}
			cols = append(cols, ColSpec{
				Header:   name,
				Patch:    raw(`{"Design":%q,"XORRemap":%v}`, d.String(), rm),
				Metric:   MetricWS,
				Agg:      "geomean",
				Baseline: normToCD,
			})
		}
	}
	return cols
}

// designRemapRows builds one row per (remap, design) variant carrying a
// single metric column's value — the layout of Figs. 12–17.
func designRemapRows(remaps []bool) []RowSpec {
	var rows []RowSpec
	for _, rm := range remaps {
		for _, d := range designs {
			name := d.String()
			if rm {
				name = "XOR+" + name
			}
			rows = append(rows, RowSpec{
				Labels: []string{name},
				Patch:  raw(`{"Design":%q,"XORRemap":%v}`, d.String(), rm),
			})
		}
	}
	return rows
}

// orgRows maps both organizations to table rows.
func orgRows() []RowSpec {
	var rows []RowSpec
	for _, o := range orgs {
		rows = append(rows, RowSpec{Labels: []string{o.String()}, Patch: raw(`{"Org":%q}`, o.String())})
	}
	return rows
}

// perOrg stamps two copies of a per-organization figure spec, one per
// organization (the paper presents SA and DM variants side by side).
// The template's Patch slot belongs to perOrg (org + the paper pins);
// a figure needing more table-wide overrides (like fig19's Lee flag)
// writes its spec by hand, so a non-empty template patch is a
// programming error rather than something to silently discard.
func perOrg(names, titles [2]string, spec TableSpec) []TableSpec {
	if len(spec.Patch) != 0 {
		panic("exp: perOrg template must not set Patch — it is replaced per organization")
	}
	out := make([]TableSpec, 2)
	for i, o := range orgs {
		s := spec
		s.Name, s.Title = names[i], titles[i]
		s.Patch = raw(`{"Org":%q,%s}`, o.String(), pins)
		out[i] = s
	}
	return out
}

// Fig18Sizes are the SRAM tag-cache capacities swept by Fig. 18.
var Fig18Sizes = []int{64, 128, 192, 256, 384, 512}

func fig18Rows() []RowSpec {
	var rows []RowSpec
	for _, kb := range Fig18Sizes {
		rows = append(rows, RowSpec{
			Labels: []string{fmt.Sprintf("%dKB", kb)},
			Patch:  raw(`{"TagCacheKB":%d}`, kb),
		})
	}
	return rows
}

func fig19Rows() []RowSpec {
	var rows []RowSpec
	for _, d := range designs {
		rows = append(rows, RowSpec{
			Labels: []string{"LEE+" + d.String()},
			Patch:  raw(`{"Design":%q}`, d.String()),
		})
	}
	return rows
}

// Figures is the declarative registry of every evaluation table: the
// paper's Figs. 8–19 plus the extension studies of extensions.go, in
// presentation order. Each entry is pure data interpreted by
// Runner.Table, so adding a figure is adding a spec here (or loading one
// from JSON), not writing a new driver.
var Figures = buildFigures()

func buildFigures() []TableSpec {
	var specs []TableSpec
	add := func(s ...TableSpec) { specs = append(specs, s...) }

	add(TableSpec{
		Name:    "fig8",
		Title:   "Fig. 8: average speedup (normalized to CD)",
		Headers: []string{"org"},
		Patch:   raw(`{%s}`, pins),
		Rows:    orgRows(),
		Cols:    designCols([]bool{false}),
	})
	add(TableSpec{
		Name:    "fig9",
		Title:   "Fig. 9: average speedup with remapping (normalized to CD w/o remap)",
		Headers: []string{"org"},
		Patch:   raw(`{%s}`, pins),
		Rows:    orgRows(),
		Cols:    designCols([]bool{true}),
	})
	add(perOrg([2]string{"fig10", "fig11"}, [2]string{
		"Fig. 10: per-workload speedup, set-associative",
		"Fig. 11: per-workload speedup, direct-mapped",
	}, TableSpec{
		Headers: []string{"mix"},
		PerMix:  true,
		Rows:    []RowSpec{{}},
		Cols:    designCols([]bool{false, true}),
	})...)
	add(perOrg([2]string{"fig12", "fig13"}, [2]string{
		"Fig. 12: L2 miss latency improvement, set-associative",
		"Fig. 13: L2 miss latency improvement, direct-mapped",
	}, TableSpec{
		Headers: []string{"design"},
		Rows:    designRemapRows([]bool{false, true}),
		Cols: []ColSpec{{
			Header:   "L2 miss latency improvement (%)",
			Metric:   "l2MissLatencyNS",
			Agg:      "mean",
			Baseline: normToCD,
			Op:       "pctImprove",
		}},
	})...)
	add(perOrg([2]string{"fig14", "fig15"}, [2]string{
		"Fig. 14: accesses per turnaround, set-associative",
		"Fig. 15: accesses per turnaround, direct-mapped",
	}, TableSpec{
		Headers: []string{"design"},
		Rows:    designRemapRows([]bool{false}),
		Cols: []ColSpec{{
			Header: "accesses per turnaround",
			Metric: "accessesPerTurnaround",
			Agg:    "mean",
		}},
	})...)
	add(perOrg([2]string{"fig16", "fig17"}, [2]string{
		"Fig. 16: row buffer hit rate, set-associative",
		"Fig. 17: row buffer hit rate, direct-mapped",
	}, TableSpec{
		Headers: []string{"design"},
		Rows:    designRemapRows([]bool{false, true}),
		Cols: []ColSpec{{
			Header: "row buffer hit rate",
			Metric: "readRowHitRate",
			Agg:    "mean",
		}},
	})...)
	// Fig. 18, the tag-cache study: DRAM tag accesses for various SRAM
	// tag-cache sizes on the set-associative organization, normalized to
	// the no-tag-cache baseline. The paper's observation is that a small
	// tag cache *increases* DRAM tag traffic (≈2× at 192 KB) because tag
	// blocks have little temporal locality and the row-granular prefetch
	// multiplies fetches.
	add(TableSpec{
		Name:    "fig18",
		Title:   "Fig. 18: DRAM tag accesses vs tag cache size",
		Headers: []string{"tag cache"},
		Patch:   raw(`{"Org":"set-assoc","Design":"CD",%s}`, pins),
		Rows:    fig18Rows(),
		Cols: []ColSpec{
			{
				Header:   "normalized DRAM tag accesses",
				Metric:   "dramTagAccesses",
				Agg:      "mean",
				Baseline: raw(`{"TagCacheKB":0}`),
				Op:       "ratio",
			},
			{
				Header: "tag cache hit rate",
				Metric: "tagCacheHitRate",
				Agg:    "mean",
			},
		},
	})
	// Fig. 19, the Lee DRAM-aware writeback study on the direct-mapped
	// organization: CD, ROD, and DCA with the Lee policy enabled in the
	// L2, normalized to CD+LEE. The paper reports DCA continuing to
	// outperform CD by ≈7 % under this policy.
	add(TableSpec{
		Name:    "fig19",
		Title:   "Fig. 19: speedup under Lee DRAM-aware writeback (direct-mapped)",
		Headers: []string{"design"},
		Patch:   raw(`{"Org":"direct-mapped","XORRemap":false,"LeeWriteback":true,"TagCacheKB":0,"Algorithm":"BLISS","BEARProbe":false}`),
		Rows:    fig19Rows(),
		Cols: []ColSpec{{
			Header:   "speedup vs LEE+CD",
			Metric:   MetricWS,
			Agg:      "geomean",
			Baseline: raw(`{"Design":"CD"}`),
		}},
	})
	add(extensionSpecs()...)
	return specs
}

// TableI renders the workload groupings.
func TableI(mixes []workload.Mix) *stats.Table {
	t := stats.NewTable("mix", "core0", "core1", "core2", "core3")
	for _, m := range mixes {
		t.AddRowf(m.ID, m.Benchmarks[0], m.Benchmarks[1], m.Benchmarks[2], m.Benchmarks[3])
	}
	return t
}

// TableII renders the system parameters of a configuration.
func (r *Runner) TableII() *stats.Table {
	c := r.base
	t := stats.NewTable("parameter", "value")
	t.AddRowf("processor", fmt.Sprintf("%.0f GHz, %d-wide, %d ROB entries, %d MSHRs",
		c.CPU.FreqGHz, c.CPU.Width, c.CPU.ROB, c.CPU.MSHRs))
	t.AddRowf("L1", fmt.Sprintf("%s / %d-way", byteSize(c.L1Bytes), c.L1Ways))
	t.AddRowf("L2", fmt.Sprintf("%s / %d-way, %v hit", byteSize(c.L2Bytes), c.L2Ways, c.L2HitLat))
	t.AddRowf("DRAM cache", fmt.Sprintf("%s, %d channels x %d banks, %d B rows",
		byteSize(c.CacheSizeBytes), c.Channels, c.Banks, dcache.RowBytes))
	t.AddRowf("timing", fmt.Sprintf("tRCD/tCAS/tRP/tRAS %v/%v/%v/%v",
		c.Timing.TRCD, c.Timing.TCAS, c.Timing.TRP, c.Timing.TRAS))
	t.AddRowf("turnaround", fmt.Sprintf("tWTR %v, tRTW %v, tWR %v, tBURST %v",
		c.Timing.TWTR, c.Timing.TRTW, c.Timing.TWR, c.Timing.TBurst))
	t.AddRowf("main memory", fmt.Sprintf("%v latency, %v per block",
		c.MainMem.Latency, c.MainMem.BlockTime))
	cc := c.CtrlConfig()
	t.AddRowf("read queue", fmt.Sprintf("%d entries", cc.ReadQueueCap))
	t.AddRowf("write queue", fmt.Sprintf("%d entries, flush %.0f%%/%.0f%%",
		cc.WriteQueueCap, 100*cc.WriteFlushLow, 100*cc.WriteFlushHigh))
	t.AddRowf("run", fmt.Sprintf("%d instr/core, %d warm memops/core, WS x%.2f",
		c.InstrPerCore, c.WarmMemops, c.WSScale))
	return t
}

// byteSize renders a size exactly: in MB when it is a whole number of
// MiB, else in KB when a whole number of KiB, else in bytes.
func byteSize(n int64) string {
	switch {
	case n%(1<<20) == 0:
		return fmt.Sprintf("%d MB", n>>20)
	case n%(1<<10) == 0:
		return fmt.Sprintf("%d KB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}

package exp

import (
	"dcasim/internal/core"
	"dcasim/internal/simtime"
)

// The extension studies go beyond the paper's figures but test claims
// the paper makes in prose:
//
//   - §V argues the conservative tWTR assumption (5 ns instead of
//     JEDEC's 10 ns) "will only lower the speedup of our design over
//     ROD" — the twtr spec verifies DCA's margin over ROD grows with
//     tWTR.
//   - §IV-B notes the scheme "is not limited to any scheduling
//     algorithm" — the sched spec swaps BLISS for FR-FCFS and FCFS.
//   - §VII argues DCA composes with BEAR by scheduling the residual
//     accesses — the bear spec enables an ideal writeback-probe filter.
//
// Like the figures, each study is a declarative TableSpec; the Table II
// tWTR value patches to the very bytes the base config already carries,
// so those runs hash identically to — and are shared with — the main
// figures' runs.

// TWTRValues are the write-to-read turnaround latencies swept: the
// optimistic half-JEDEC value the paper assumes conservatively low
// (2.5 ns), the paper's 5 ns, and the JEDEC wide-IO minimum (10 ns).
var TWTRValues = []simtime.Time{
	simtime.FromNS(2.5),
	simtime.FromNS(5),
	simtime.FromNS(10),
}

// SchedulerAlgorithms are the base algorithms swept by the sched study:
// all three of the paper's policies. examples/sweep/policy_comparison.json
// sweeps the same three across CD and DCA.
var SchedulerAlgorithms = []core.Algorithm{core.AlgBLISS, core.AlgFRFCFS, core.AlgFCFS}

func extensionSpecs() []TableSpec {
	vsCD := func(d core.Design) ColSpec {
		return ColSpec{
			Header:   d.String() + " vs CD",
			Patch:    raw(`{"Design":%q}`, d.String()),
			Metric:   MetricWS,
			Agg:      "geomean",
			Baseline: raw(`{"Design":"CD"}`),
		}
	}

	var twtrRows []RowSpec
	for _, tw := range TWTRValues {
		twtrRows = append(twtrRows, RowSpec{
			Labels: []string{tw.String()},
			Patch:  raw(`{"Timing":{"TWTR":%d}}`, int64(tw)),
		})
	}
	twtr := TableSpec{
		Name:    "twtr",
		Title:   "Extension: tWTR sensitivity (direct-mapped; paper §V claim)",
		Headers: []string{"tWTR"},
		Patch:   raw(`{"Org":"direct-mapped",%s}`, pins),
		Rows:    twtrRows,
		Cols: []ColSpec{
			vsCD(core.ROD),
			vsCD(core.DCA),
			{Header: "DCA vs ROD", Div: &[2]string{"DCA vs CD", "ROD vs CD"}},
		},
	}

	var schedRows []RowSpec
	for _, alg := range SchedulerAlgorithms {
		for _, o := range orgs {
			schedRows = append(schedRows, RowSpec{
				Labels: []string{alg.String(), o.String()},
				Patch:  raw(`{"Algorithm":%q,"Org":%q}`, alg.String(), o.String()),
			})
		}
	}
	sched := TableSpec{
		Name:    "sched",
		Title:   "Extension: DCA gain under other base schedulers (paper §IV-B claim)",
		Headers: []string{"algorithm", "org"},
		Patch:   raw(`{"XORRemap":false,"LeeWriteback":false,"TagCacheKB":0,"BEARProbe":false}`),
		Rows:    schedRows,
		Cols:    []ColSpec{vsCD(core.DCA)},
	}

	var bearRows []RowSpec
	for _, d := range designs {
		bearRows = append(bearRows, RowSpec{
			Labels: []string{"BEAR+" + d.String()},
			Patch:  raw(`{"Design":%q,"BEARProbe":true}`, d.String()),
		})
	}
	bear := TableSpec{
		Name:    "bear",
		Title:   "Extension: ideal BEAR writeback probe (direct-mapped; paper §VII claim)",
		Headers: []string{"design"},
		Patch:   raw(`{"Org":"direct-mapped","XORRemap":false,"LeeWriteback":false,"TagCacheKB":0,"Algorithm":"BLISS"}`),
		Rows:    bearRows,
		Cols: []ColSpec{
			{
				Header:   "speedup vs CD",
				Metric:   MetricWS,
				Agg:      "geomean",
				Baseline: raw(`{"Design":"CD","BEARProbe":false}`),
			},
			{
				Header: "probes elided",
				Metric: "bearElidedFrac",
				Agg:    "mean",
				Format: "pct0",
			},
		},
	}

	return []TableSpec{twtr, sched, bear}
}

package exp

import (
	"encoding/json"
	"fmt"
	"strings"

	"dcasim/internal/core"
	"dcasim/internal/sched"
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

// SchedulerAlgorithms are the base algorithms swept by the sched study.
// Deliberately static rather than derived from the policy registry: the
// golden figure tables pin the sched study's exact rows, so a policy
// package registering itself must not silently grow this list. Sweep
// additional registered policies (e.g. ATLAS) through sweep specs —
// see examples/sweep/policy_comparison.json — or PolicyAxes.
var SchedulerAlgorithms = []core.Algorithm{core.AlgBLISS, core.AlgFRFCFS, core.AlgFCFS}

// PolicyAxes returns the ready-made sweep axes a registered scheduling
// policy declared (sched.Registration.SweepAxes) converted to sweep-spec
// axes, so `dcasim sweep` specs and programmatic sweeps can pick them up
// without hand-writing the patches.
func PolicyAxes(name string) ([]SweepAxis, error) {
	r, ok := sched.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown scheduling policy %q (registered: %s)",
			name, strings.Join(sched.Names(), ", "))
	}
	axes := make([]SweepAxis, 0, len(r.SweepAxes))
	for _, a := range r.SweepAxes {
		ax := SweepAxis{Name: a.Name}
		for _, p := range a.Points {
			if !json.Valid([]byte(p.Patch)) {
				return nil, fmt.Errorf("exp: policy %q axis %q point %q: invalid patch %s",
					name, a.Name, p.Label, p.Patch)
			}
			ax.Values = append(ax.Values, SweepPoint{Label: p.Label, Set: json.RawMessage(p.Patch)})
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// DescribePolicies renders the policy registry as a text table for the
// CLIs' -list-policies flags: canonical name, aliases, declared tunables
// with defaults and ranges, and the one-line description.
func DescribePolicies() string {
	var b strings.Builder
	for _, name := range sched.Names() {
		r, ok := sched.Lookup(name)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s", name)
		if len(r.Aliases) > 0 {
			fmt.Fprintf(&b, " (aliases: %s)", strings.Join(r.Aliases, ", "))
		}
		if r.Doc != "" {
			fmt.Fprintf(&b, " — %s", r.Doc)
		}
		b.WriteString("\n")
		for _, p := range r.Params {
			fmt.Fprintf(&b, "    %-16s default %v", p.Name, p.Default)
			if p.Max > p.Min {
				fmt.Fprintf(&b, "  range [%v, %v]", p.Min, p.Max)
			}
			if p.Doc != "" {
				fmt.Fprintf(&b, "  %s", p.Doc)
			}
			b.WriteString("\n")
		}
		for _, a := range r.SweepAxes {
			labels := make([]string, len(a.Points))
			for i, pt := range a.Points {
				labels[i] = pt.Label
			}
			fmt.Fprintf(&b, "    sweep axis %s: %s\n", a.Name, strings.Join(labels, ", "))
		}
	}
	return b.String()
}

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

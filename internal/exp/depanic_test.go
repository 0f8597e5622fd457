package exp

// Regression tests for the de-panicked aggregation layer: degenerate
// samples (zero IPC from a poisoned run) reach stats.GeoMean and
// stats.WeightedSpeedup at table-render time — after every simulation
// has completed and outside runIsolated's panic isolation — so they
// must surface as errors, never as process-killing panics.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/sim"
	"dcasim/internal/trace"
	"dcasim/internal/workload"
)

// zeroIPCSim is a substitute simulator returning a successful result
// whose IPCs are all zero — the degenerate sample a poisoned run
// produces — so the render-time aggregation paths can be driven without
// a real simulation.
func zeroIPCSim(cfg config.Config, _ *warmSlot) (sim.Result, error) {
	n := len(cfg.Benchmarks)
	return sim.Result{
		Benchmarks: append([]string(nil), cfg.Benchmarks...),
		IPC:        make([]float64, n),
		FinishNS:   make([]float64, n),
	}, nil
}

// TestGeoMeanAggregationErrorNotPanic: a geomean column over all-zero
// samples must fail the table with an error.
func TestGeoMeanAggregationErrorNotPanic(t *testing.T) {
	r := testRunner(t, 1)
	r.run = zeroIPCSim
	spec := TableSpec{
		Name:    "degenerate-geomean",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
		Cols:    []ColSpec{{Header: "g", Metric: "ipcTotal", Agg: "geomean"}},
	}
	tbl, err := r.Table(spec)
	if err == nil {
		t.Fatalf("geomean over zero samples did not error:\n%s", tbl)
	}
	if !strings.Contains(err.Error(), "geometric mean") {
		t.Fatalf("error does not name the degenerate aggregation: %v", err)
	}
}

// TestWeightedSpeedupZeroAloneErrorNotPanic: a ws column whose alone
// runs report zero IPC must fail the table with an error, not panic at
// stats.WeightedSpeedup.
func TestWeightedSpeedupZeroAloneErrorNotPanic(t *testing.T) {
	r := testRunner(t, 1)
	r.run = zeroIPCSim
	spec := TableSpec{
		Name:    "degenerate-ws",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
		Cols:    []ColSpec{{Header: "ws", Metric: MetricWS, Agg: "geomean"}},
	}
	tbl, err := r.Table(spec)
	if err == nil {
		t.Fatalf("weighted speedup over zero alone IPCs did not error:\n%s", tbl)
	}
	if !strings.Contains(err.Error(), "alone IPC") {
		t.Fatalf("error does not name the zero alone IPC: %v", err)
	}
}

// TestPerMixGmeanErrorNotPanic: the PerMix summary row computes a
// geomean over raw per-mix samples; all-zero samples must error there
// too.
func TestPerMixGmeanErrorNotPanic(t *testing.T) {
	r := testRunner(t, 1)
	r.run = zeroIPCSim
	spec := TableSpec{
		Name:    "degenerate-permix",
		Headers: []string{"mix"},
		PerMix:  true,
		Rows:    []RowSpec{{}},
		Cols:    []ColSpec{{Header: "ipc", Metric: "ipcTotal"}},
	}
	tbl, err := r.Table(spec)
	if err == nil {
		t.Fatalf("perMix gmean over zero samples did not error:\n%s", tbl)
	}
	if !strings.Contains(err.Error(), "gmean") {
		t.Fatalf("error does not name the gmean row: %v", err)
	}
}

// TestDivZeroDenominatorRendersDash: a Div cell with a zero denominator
// must render "-" like the sweep engine's missing metrics, not pass
// NaN/Inf off as data.
func TestDivZeroDenominatorRendersDash(t *testing.T) {
	r := testRunner(t, 1)
	r.run = func(cfg config.Config, _ *warmSlot) (sim.Result, error) {
		n := len(cfg.Benchmarks)
		res := sim.Result{
			Benchmarks: append([]string(nil), cfg.Benchmarks...),
			IPC:        make([]float64, n),
			FinishNS:   make([]float64, n),
		}
		for i := range res.IPC {
			res.IPC[i] = 1
		}
		// res.DRAM.Turnarounds stays 0: the denominator column below
		// aggregates to exactly zero.
		return res, nil
	}
	spec := TableSpec{
		Name:    "div-zero",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
		Cols: []ColSpec{
			{Header: "num", Metric: "ipcTotal", Agg: "mean"},
			{Header: "den", Metric: "turnarounds", Agg: "mean"},
			{Header: "ratio", Div: &[2]string{"num", "den"}},
		},
	}
	tbl, err := r.Table(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := tbl.Rows()[0]
	if got := row[3]; got != "-" {
		t.Fatalf("zero-denominator div cell = %q, want %q\n%s", got, "-", tbl)
	}
	if out := tbl.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("table leaks NaN/Inf:\n%s", out)
	}
}

// TestDivValidateRejectsStrayFields: validate must reject run-driven
// fields on a Div column before any simulation runs — they would be
// silently ignored otherwise, the exact failure mode validate exists to
// prevent.
func TestDivValidateRejectsStrayFields(t *testing.T) {
	r := testRunner(t, 1)
	base := TableSpec{
		Name:    "div-stray",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
	}
	div := &[2]string{"a", "a"}
	cases := map[string]ColSpec{
		"metric":   {Header: "d", Div: div, Metric: "totalNS"},
		"agg":      {Header: "d", Div: div, Agg: "geomena"},
		"op":       {Header: "d", Div: div, Op: "ratio"},
		"baseline": {Header: "d", Div: div, Baseline: raw(`{}`)},
		"patch":    {Header: "d", Div: div, Patch: raw(`{}`)},
	}
	for name, col := range cases {
		spec := base
		spec.Cols = []ColSpec{{Header: "a", Metric: "totalNS"}, col}
		if _, err := r.Table(spec); err == nil {
			t.Errorf("%s: stray field on div column accepted", name)
		}
	}
	if r.SimRuns() != 0 {
		t.Fatalf("stray-field specs launched %d simulations", r.SimRuns())
	}
}

// TestKeepGoingSweepZeroOpTrace is the end-to-end regression for the
// bug this PR fixes: a keep-going sweep over a zero-op trace (a header
// with no operations, as a poisoned recording would leave behind) must
// finish with a joined error naming every failing point — not crash the
// process.
func TestKeepGoingSweepZeroOpTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "zero-op.dct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{
		Benchmarks:   []string{"mcf"},
		Seed:         1,
		WSScale:      1,
		InstrPerCore: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spec := SweepSpec{
		Schema: config.SchemaVersion,
		Name:   "zero-op-keepgoing",
		Scale:  "test",
		Base:   raw(`{"TracePath":%q,"Benchmarks":[]}`, path),
		Axes: []SweepAxis{
			{Name: "seed", Values: []SweepPoint{
				{Label: "s1", Set: raw(`{"Seed":1}`)},
				{Label: "s2", Set: raw(`{"Seed":2}`)},
			}},
		},
		Metrics: []string{"totalNS"},
	}
	tbl, runner, err := RunSweep(spec, SweepOpts{Workers: 2, KeepGoing: true})
	if err == nil {
		t.Fatalf("zero-op trace sweep succeeded:\n%s", tbl)
	}
	if tbl != nil {
		t.Fatal("failed sweep returned a partial table")
	}
	if runner == nil {
		t.Fatal("failed sweep returned no runner")
	}
	// Keep-going joins every distinct failure in point order; both
	// seeded points must be reported.
	msg := err.Error()
	for _, want := range []string{"seed 1", "seed 2", "replay"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
}

// TestKeepGoingTableDegenerateSamples: under keep-going the runner
// itself survives the runs, and the degenerate-sample failure still
// surfaces as a render-time error from Table (not a panic), even for
// per-mix workload specs with multiple mixes.
func TestKeepGoingTableDegenerateSamples(t *testing.T) {
	cfg := config.Test()
	r := NewRunner(cfg, workload.TableI()[:2], 2)
	r.SetKeepGoing(true)
	r.run = zeroIPCSim
	spec := TableSpec{
		Name:    "degenerate-keepgoing",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
		Cols:    []ColSpec{{Header: "g", Metric: "ipcTotal", Agg: "geomean"}},
	}
	if _, err := r.Table(spec); err == nil {
		t.Fatal("keep-going table over zero samples did not error")
	}
}

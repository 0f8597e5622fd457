package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/workload"
)

// TestRunErrorMemoized: an invalid config must fail once and then keep
// failing from the memo without re-running validation-failing sims.
func TestRunErrorMemoized(t *testing.T) {
	r := testRunner(t, 1)
	bad := config.Test()
	bad.Benchmarks = []string{"no-such-benchmark"}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("Run accepted an unknown benchmark")
	}
	if _, err := r.Run(bad); err == nil {
		t.Fatal("memoized error was dropped on the second call")
	}
	if n := r.SimRuns(); n != 0 {
		t.Fatalf("failed config counted as %d executed simulations", n)
	}
}

// TestTableUnknownMetric: a spec naming a metric outside the registry
// must error up front, before any simulation runs.
func TestTableUnknownMetric(t *testing.T) {
	r := testRunner(t, 1)
	spec := TableSpec{
		Name:    "bogus",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
		Cols:    []ColSpec{{Header: "c", Metric: "no-such-metric"}},
	}
	_, err := r.Table(spec)
	if err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Fatalf("want unknown-metric error, got %v", err)
	}
	if r.SimRuns() != 0 {
		t.Fatal("unknown metric still launched simulations")
	}
}

// TestTableBadPatch: a typoed config field in a patch must be rejected,
// not silently ignored (it would select the wrong cache key).
func TestTableBadPatch(t *testing.T) {
	r := testRunner(t, 1)
	spec := TableSpec{
		Name:    "typo",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}, Patch: raw(`{"Desing":"CD"}`)}},
		Cols:    []ColSpec{{Header: "c", Metric: "totalNS"}},
	}
	if _, err := r.Table(spec); err == nil {
		t.Fatal("Table accepted a patch with an unknown field")
	}
}

// TestDivColumnUnknownReference: derived columns must name columns that
// already exist in the row.
func TestDivColumnUnknownReference(t *testing.T) {
	r := testRunner(t, 1)
	spec := TableSpec{
		Name:    "div",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
		Cols: []ColSpec{
			{Header: "a", Metric: "totalNS"},
			{Header: "bad", Div: &[2]string{"a", "missing"}},
		},
	}
	if _, err := r.Table(spec); err == nil {
		t.Fatal("Table accepted a div column referencing a missing column")
	}
	if r.SimRuns() != 0 {
		t.Fatal("bad div column still launched simulations")
	}
}

// TestTableBadAggOpFormat: typos in the fold/normalize/format fields
// must also fail before any simulation runs.
func TestTableBadAggOpFormat(t *testing.T) {
	r := testRunner(t, 1)
	base := TableSpec{
		Name:    "bad",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
	}
	cases := map[string]ColSpec{
		"agg":    {Header: "c", Metric: "totalNS", Agg: "geomena"},
		"op":     {Header: "c", Metric: "totalNS", Baseline: raw(`{}`), Op: "pctimprove"},
		"format": {Header: "c", Metric: "totalNS", Format: "pct1"},
	}
	for name, col := range cases {
		spec := base
		spec.Cols = []ColSpec{col}
		if _, err := r.Table(spec); err == nil {
			t.Errorf("%s: typo accepted", name)
		}
	}
	if r.SimRuns() != 0 {
		t.Fatalf("typoed specs launched %d simulations", r.SimRuns())
	}
}

// TestTableRejectsRecordPath: table runs execute in parallel, so a base
// config that records a trace would have every run truncating one file.
// The planner rejects it before any simulation, as it does for sweeps.
func TestTableRejectsRecordPath(t *testing.T) {
	cfg := config.Test()
	cfg.RecordPath = filepath.Join(t.TempDir(), "x.dct")
	r := NewRunner(cfg, workload.TableI()[:2], 1)
	_, err := r.Figure("fig8")
	if err == nil || !strings.Contains(err.Error(), "RecordPath") {
		t.Fatalf("table with RecordPath not rejected: %v", err)
	}
	if n := r.SimRuns(); n != 0 {
		t.Fatalf("rejected table still ran %d simulations", n)
	}
	if _, err := os.Stat(cfg.RecordPath); !os.IsNotExist(err) {
		t.Fatalf("rejected table wrote the trace file: %v", err)
	}
}

package exp

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/rescache"
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

// TestUnencodableConfigIsAnError: a config with no canonical encoding
// (a Design or Algorithm outside the paper's, an unknown Org, a NaN) fails
// Run, Ensure and a table with an error naming the field, instead of
// panicking in the config hash, and starts no simulation.
func TestUnencodableConfigIsAnError(t *testing.T) {
	spec := TableSpec{
		Name:    "base",
		Headers: []string{"x"},
		Rows:    []RowSpec{{Labels: []string{"row"}}},
		Cols:    []ColSpec{{Header: "c", Metric: "totalNS"}},
	}
	for _, tc := range []struct {
		field string
		set   func(*config.Config)
	}{
		{"Design", func(c *config.Config) { c.Design = core.Design(99) }},
		{"Org", func(c *config.Config) { c.Org = dcache.Org(7) }},
		{"Algorithm", func(c *config.Config) { c.Algorithm = "bogus" }},
		{"WSScale", func(c *config.Config) { c.WSScale = math.NaN() }},
	} {
		bad := fakeCfg(1)
		tc.set(&bad)
		r := NewRunner(bad, workload.TableI()[:1], 1)
		r.run = fakeSim()
		if _, err := r.Run(bad); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Run error %v, want one naming the field", tc.field, err)
		}
		if err := r.Ensure([]config.Config{fakeCfg(2), bad}); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Ensure error %v, want one naming the field", tc.field, err)
		}
		if _, err := r.Table(spec); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Table error %v, want one naming the field", tc.field, err)
		}
		if n := r.SimRuns(); n != 0 {
			t.Errorf("%s: %d simulations ran", tc.field, n)
		}
	}
}

// TestFiguresParseEachPatchOnce: a warm all-figures pass parses each
// distinct patch literal of the registered figures once per runner,
// however many cells apply it, and a second pass parses none.
func TestFiguresParseEachPatchOnce(t *testing.T) {
	literals := map[string]bool{}
	for _, spec := range Figures {
		patches := []json.RawMessage{spec.Patch}
		for _, row := range spec.Rows {
			patches = append(patches, row.Patch)
		}
		for _, col := range spec.Cols {
			patches = append(patches, col.Patch, col.Baseline)
		}
		for _, p := range patches {
			if len(p) > 0 {
				literals[string(p)] = true
			}
		}
	}
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pass := func(r *Runner) {
		t.Helper()
		for _, name := range FigureNames() {
			if _, err := r.Figure(name); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	cold := NewRunner(config.Test(), workload.TableI()[:1], 2)
	cold.SetCache(cache)
	pass(cold)
	warm := NewRunner(config.Test(), workload.TableI()[:1], 2)
	warm.SetCache(cache)
	for i := 1; i <= 2; i++ {
		pass(warm)
		if n := warm.patches.parses; n != len(literals) {
			t.Fatalf("pass %d: %d patch parses, want one per distinct literal (%d)", i, n, len(literals))
		}
	}
	if n := warm.SimRuns(); n != 0 {
		t.Fatalf("warm pass simulated %d runs, want 0", n)
	}
}

// TestPatchMemoConcurrent: goroutines patching through one memo at once
// each parse a literal at most once between them and get exactly what
// config.Config.Patch gives.
func TestPatchMemoConcurrent(t *testing.T) {
	literals := []json.RawMessage{raw(`{"Design":"ROD"}`), raw(`{"Org":"dm"}`), raw(`{"FlushFactor":2}`)}
	base := fakeCfg(1)
	want, err := base.Patch(literals...)
	if err != nil {
		t.Fatal(err)
	}
	var m patchMemo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := m.apply(base, literals...)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("apply = %+v, %v; want %+v", got, err, want)
			}
		}()
	}
	wg.Wait()
	if m.parses != len(literals) {
		t.Fatalf("%d parses of %d literals", m.parses, len(literals))
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

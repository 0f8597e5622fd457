package exp

import (
	"strings"
	"sync"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/dcache"
	"dcasim/internal/workload"
)

func testRunner(t *testing.T, nmix int) *Runner {
	t.Helper()
	cfg := config.Test()
	return NewRunner(cfg, workload.TableI()[:nmix], 2)
}

func TestTableI(t *testing.T) {
	tbl := TableI(workload.TableI())
	out := tbl.String()
	if !strings.Contains(out, "soplex") || !strings.Contains(out, "GemsFDTD") {
		t.Fatalf("Table I missing benchmarks:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 32 { // header + separator + 30 rows
		t.Fatalf("Table I has %d lines, want 32", got)
	}
}

func TestTableII(t *testing.T) {
	out := testRunner(t, 1).TableII().String()
	for _, want := range []string{"DRAM cache", "read queue", "write queue", "tWTR"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

// TestByteSize: Table II sizes render exactly, in the largest unit that
// divides them.
func TestByteSize(t *testing.T) {
	for n, want := range map[int64]string{
		0:          "0 MB",
		32 << 10:   "32 KB",
		512 << 10:  "512 KB",
		1536 << 10: "1536 KB",
		4 << 20:    "4 MB",
		256 << 20:  "256 MB",
		1000:       "1000 B",
	} {
		if got := byteSize(n); got != want {
			t.Errorf("byteSize(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestFig8ShapeAndMemoization(t *testing.T) {
	r := testRunner(t, 2)
	tbl, err := r.Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "set-assoc") || !strings.Contains(out, "direct-mapped") {
		t.Fatalf("Fig8 rows missing:\n%s", out)
	}
	runsAfter := r.SimRuns()
	// Rerunning must reuse every memoized simulation.
	if _, err := r.Figure("fig8"); err != nil {
		t.Fatal(err)
	}
	if r.SimRuns() != runsAfter {
		t.Fatalf("Fig8 rerun launched new simulations: %d -> %d", runsAfter, r.SimRuns())
	}
}

func TestFig8CDBaselineIsOne(t *testing.T) {
	r := testRunner(t, 2)
	tbl, err := r.Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	// The CD column is normalized to itself, so it must render exactly 1.
	for _, row := range tbl.Rows() {
		if row[1] != "1.000" {
			t.Fatalf("CD normalized to itself should be exactly 1.000, row %v", row)
		}
	}
}

func TestFiguresShareRuns(t *testing.T) {
	r := testRunner(t, 1)
	if _, err := r.Figure("fig10"); err != nil { // needs SA, all designs, both remaps
		t.Fatal(err)
	}
	n := r.SimRuns()
	if _, err := r.Figure("fig12"); err != nil { // same runs, different metric
		t.Fatal(err)
	}
	if _, err := r.Figure("fig14"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Figure("fig16"); err != nil {
		t.Fatal(err)
	}
	if r.SimRuns() != n {
		t.Fatalf("figures 12/14/16 did not reuse figure 10's runs: %d -> %d", n, r.SimRuns())
	}
}

func TestFig18RowsPerSize(t *testing.T) {
	r := testRunner(t, 1)
	tbl, err := r.Figure("fig18")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, kb := range Fig18Sizes {
		if !strings.Contains(out, "KB") {
			t.Fatalf("Fig18 missing %dKB row:\n%s", kb, out)
		}
	}
}

func TestFig19Runs(t *testing.T) {
	r := testRunner(t, 1)
	tbl, err := r.Figure("fig19")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "LEE+DCA") {
		t.Fatalf("Fig19 missing LEE+DCA row:\n%s", tbl)
	}
}

// aloneCfgs returns the alone configs behind the weighted speedups of
// the runner's first mix on the set-associative organization.
func aloneCfgs(r *Runner) []config.Config {
	var cfgs []config.Config
	for _, b := range r.Mixes()[0].Benchmarks {
		cfgs = append(cfgs, r.aloneConfig(b, dcache.SetAssoc))
	}
	return cfgs
}

func TestAloneIPCMemoized(t *testing.T) {
	r := testRunner(t, 1)
	if err := r.Ensure(aloneCfgs(r)); err != nil {
		t.Fatal(err)
	}
	n := r.SimRuns()
	if n == 0 {
		t.Fatal("no alone IPCs computed")
	}
	if err := r.Ensure(aloneCfgs(r)); err != nil {
		t.Fatal(err)
	}
	if r.SimRuns() != n {
		t.Fatal("re-ensuring alone configs recomputed cached entries")
	}
}

// TestAloneIPCSingleflight hammers the same alone configs from many
// goroutines at once and asserts every simulation ran exactly once: the
// in-flight guard must close the check-then-compute window that used to
// let two drivers duplicate a full run.
func TestAloneIPCSingleflight(t *testing.T) {
	r := testRunner(t, 1)
	distinct := make(map[string]bool)
	for _, b := range r.Mixes()[0].Benchmarks {
		distinct[b] = true
	}

	const callers = 8
	results := make([][]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, cfg := range aloneCfgs(r) {
				res, err := r.Run(cfg)
				if err != nil {
					errs[i] = err
					return
				}
				results[i] = append(results[i], res.IPC[0])
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		for j, v := range results[i] {
			if v != results[0][j] {
				t.Fatalf("caller %d got %v, caller 0 got %v", i, results[i], results[0])
			}
		}
	}
	if got, want := r.SimRuns(), int64(len(distinct)); got != want {
		t.Fatalf("executed %d alone runs for %d distinct benchmarks (duplicated work)", got, want)
	}
	if len(r.inflight) != 0 {
		t.Fatalf("%d in-flight records leaked", len(r.inflight))
	}
}

package exp

import (
	"bytes"
	"strings"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/rescache"
	"dcasim/internal/workload"
)

// TestReplicateConfigs: element 0 is the config itself and later
// elements differ only in seed, each with a distinct hash — the
// property that lets replicates ride the content-addressed cache for
// free.
func TestReplicateConfigs(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	cfgs := ReplicateConfigs(cfg, 3)
	if len(cfgs) != 3 {
		t.Fatalf("got %d configs, want 3", len(cfgs))
	}
	if cfgs[0].Hash() != cfg.Hash() {
		t.Fatal("replicate 0 is not the base config")
	}
	seen := map[string]bool{}
	for k, c := range cfgs {
		if c.Seed != config.ReplicateSeed(cfg.Seed, k) {
			t.Fatalf("replicate %d seed = %d, want %d", k, c.Seed, config.ReplicateSeed(cfg.Seed, k))
		}
		h := c.Hash()
		if seen[h] {
			t.Fatalf("replicate %d shares a hash with an earlier replicate", k)
		}
		seen[h] = true
	}
}

func TestValidateReplicates(t *testing.T) {
	for _, n := range []int{0, -1, 1001} {
		if err := ValidateReplicates(n); err == nil {
			t.Errorf("ValidateReplicates(%d) accepted", n)
		}
	}
	for _, n := range []int{1, 3, 10, 1000} {
		if err := ValidateReplicates(n); err != nil {
			t.Errorf("ValidateReplicates(%d) rejected: %v", n, err)
		}
	}
}

// TestTableReplicatesOne: replicates=1 (explicit or via the runner
// default) must be bit-identical to the unreplicated engine — the
// acceptance bar that keeps every golden green.
func TestTableReplicatesOne(t *testing.T) {
	mixes := workload.TableI()[:2]
	plain, err := NewRunner(config.Test(), mixes, 2).Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(config.Test(), mixes, 2)
	r.SetReplicates(1)
	rep1, err := r.Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != rep1.String() {
		t.Fatalf("replicates=1 diverges from the unreplicated engine:\n--- plain ---\n%s\n--- rep1 ---\n%s", plain, rep1)
	}
}

// TestTableReplicatesCI: with N>1 every data cell renders mean ±CI95,
// and the CD column (each replicate normalized to itself) pins the
// degenerate interval: exactly "1.000 ±0.000".
func TestTableReplicatesCI(t *testing.T) {
	mixes := workload.TableI()[:1]
	r := NewRunner(config.Test(), mixes, 4)
	r.SetReplicates(2)
	tbl, err := r.Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows() {
		if got := row[1]; got != "1.000 ±0.000" {
			t.Errorf("CD baseline cell = %q, want \"1.000 ±0.000\"\n%s", got, tbl)
		}
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "±") {
				t.Errorf("replicated cell %q lacks a confidence interval\n%s", cell, tbl)
			}
		}
	}
}

// TestTableSpecReplicatesOverridesRunner: a spec's own Replicates field
// wins over the runner default.
func TestTableSpecReplicatesOverridesRunner(t *testing.T) {
	mixes := workload.TableI()[:1]
	plain, err := NewRunner(config.Test(), mixes, 2).Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(config.Test(), mixes, 2)
	r.SetReplicates(2)
	spec := Figures[0] // fig8
	if spec.Name != "fig8" {
		t.Fatalf("Figures[0] = %q, want fig8", spec.Name)
	}
	spec.Replicates = 1
	tbl, err := r.Table(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() != plain.String() {
		t.Fatalf("spec.Replicates=1 did not override the runner default:\n%s", tbl)
	}
	if _, err := r.Table(TableSpec{Name: "neg", Replicates: -1, Rows: []RowSpec{{}}}); err == nil {
		t.Fatal("negative spec replicates accepted")
	}
	spec.Replicates = 1001
	runs := r.SimRuns()
	if _, err := r.Table(spec); err == nil || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("spec replicates past the bound: want an error naming it, got %v", err)
	}
	if r.SimRuns() != runs {
		t.Fatal("replicates past the bound still launched simulations")
	}
}

// TestSweepReplicatesDeterministicAndCached pins the three acceptance
// properties of replicated sweeps at once: output is byte-identical at
// every worker count in every format, each metric column splits into a
// ci95 pair in CSV/JSON, and a warm second pass over the same seeds
// executes zero simulations — replicates are ordinary cached configs.
func TestSweepReplicatesDeterministicAndCached(t *testing.T) {
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := parallelSweepSpec()
	spec.Replicates = 3
	render := func(workers int) map[string][]byte {
		t.Helper()
		tbl, _, err := RunSweep(spec, SweepOpts{Workers: workers, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, format := range []string{"text", "csv", "json"} {
			var buf bytes.Buffer
			if err := tbl.Write(&buf, format); err != nil {
				t.Fatal(err)
			}
			out[format] = buf.Bytes()
		}
		return out
	}
	seq := render(1)
	par := render(8)
	for _, format := range []string{"text", "csv", "json"} {
		if !bytes.Equal(par[format], seq[format]) {
			t.Errorf("replicated sweep %s output diverges between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
				format, seq[format], par[format])
		}
	}
	if !strings.Contains(string(seq["text"]), "±") {
		t.Fatalf("replicated sweep text lacks CI cells:\n%s", seq["text"])
	}
	if !strings.Contains(string(seq["csv"]), "totalNS ci95") {
		t.Fatalf("replicated sweep CSV lacks split ci95 columns:\n%s", seq["csv"])
	}

	// Warm pass: same spec, same seeds, fresh runner — everything must
	// come from the persistent cache.
	_, warm, err := RunSweep(spec, SweepOpts{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if warm.SimRuns() != 0 {
		t.Fatalf("warm replicated pass executed %d simulations, want 0", warm.SimRuns())
	}
	want := int64(len(spec.Points()) * spec.Replicates)
	if warm.CacheHits() != want {
		t.Fatalf("warm replicated pass hit the cache %d times, want %d", warm.CacheHits(), want)
	}
}

// TestSweepOptsReplicatesOverrideSpec: the -seeds flag (SweepOpts) wins
// over the spec's replicates value, and replicates=1 output is
// bit-identical to the plain sweep.
func TestSweepOptsReplicatesOverrideSpec(t *testing.T) {
	plainTbl, _, err := RunSweep(parallelSweepSpec(), SweepOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := parallelSweepSpec()
	spec.Replicates = 3
	tbl, _, err := RunSweep(spec, SweepOpts{Workers: 2, Replicates: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.String() != plainTbl.String() {
		t.Fatalf("SweepOpts.Replicates=1 did not override spec.Replicates=3:\n%s", tbl)
	}
	bad := parallelSweepSpec()
	bad.Replicates = -2
	if _, _, err := RunSweep(bad, SweepOpts{Workers: 1}); err == nil {
		t.Fatal("negative spec.Replicates accepted")
	}
	if _, _, err := RunSweep(parallelSweepSpec(), SweepOpts{Workers: 1, Replicates: 1001}); err == nil || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("SweepOpts.Replicates past the bound: want an error naming it, got %v", err)
	}
}

// TestTableReplicatesWarmCache: the figure engine's replicates share the
// persistent cache too — a second evaluation of a replicated figure
// simulates nothing.
func TestTableReplicatesWarmCache(t *testing.T) {
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mixes := workload.TableI()[:1]
	run := func() (*Runner, string) {
		t.Helper()
		r := NewRunner(config.Test(), mixes, 4)
		r.SetCache(cache)
		r.SetReplicates(2)
		tbl, err := r.Figure("fig8")
		if err != nil {
			t.Fatal(err)
		}
		return r, tbl.String()
	}
	cold, coldOut := run()
	if cold.SimRuns() == 0 {
		t.Fatal("cold replicated pass executed no simulations")
	}
	warm, warmOut := run()
	if warm.SimRuns() != 0 {
		t.Fatalf("warm replicated pass executed %d simulations, want 0", warm.SimRuns())
	}
	if coldOut != warmOut {
		t.Fatalf("warm replicated pass renders differently:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
}

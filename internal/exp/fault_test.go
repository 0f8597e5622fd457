package exp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dcasim/internal/cachefs"
	"dcasim/internal/config"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
)

// fakeCfg returns a distinct, hashable config for runner tests that
// substitute the simulator.
func fakeCfg(seed uint64) config.Config {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	cfg.Seed = seed
	return cfg
}

// fakeSim is a substitute simulator: instant results, panicking on the
// seeds in panics, so the panic-isolation machinery can be exercised
// without multi-second simulations.
func fakeSim(panics ...uint64) func(config.Config, *warmSlot) (sim.Result, error) {
	return func(cfg config.Config, _ *warmSlot) (sim.Result, error) {
		for _, s := range panics {
			if cfg.Seed == s {
				panic(fmt.Sprintf("injected panic at seed %d", s)) // distinct, deterministic value
			}
		}
		return sim.Result{IPC: []float64{float64(cfg.Seed)}}, nil
	}
}

// TestRunPanicIsolated: a panic inside one simulation becomes a typed
// error for exactly that run — carrying the config hash and a captured
// stack — and does not poison the runner for other configs.
func TestRunPanicIsolated(t *testing.T) {
	r := NewRunner(config.Test(), nil, 2)
	r.run = fakeSim(666)

	if _, err := r.Run(fakeCfg(1)); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	_, err := r.Run(fakeCfg(666))
	var pe *RunPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking run returned %v, want *RunPanicError", err)
	}
	if pe.Hash != fakeCfg(666).Hash() {
		t.Fatalf("panic error carries hash %q, want the run's %q", pe.Hash, fakeCfg(666).Hash())
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lost the stack trace")
	}
	if strings.Contains(pe.Error(), "goroutine") {
		t.Fatal("Error() leaks the stack trace into the deterministic error text")
	}
	// The runner is still healthy after the panic.
	if _, err := r.Run(fakeCfg(2)); err != nil {
		t.Fatalf("run after a sibling's panic failed: %v", err)
	}
	// The failure is memoized: a retry of the same config must not
	// re-execute and must report the same error.
	if _, err2 := r.Run(fakeCfg(666)); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("memoized panic error diverges: %v vs %v", err2, err)
	}
}

// TestEnsureFailFastPanicDeterministic: with panicking configs in the
// batch, fail-fast Ensure reports the first failure in dispatch order —
// here spec order, as every seed is a warm group of its own — with an
// identical message at every worker count.
func TestEnsureFailFastPanicDeterministic(t *testing.T) {
	cfgs := []config.Config{fakeCfg(1), fakeCfg(666), fakeCfg(2), fakeCfg(3), fakeCfg(777)}
	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		r.run = fakeSim(666, 777)
		err := r.Ensure(cfgs)
		if err == nil {
			t.Fatalf("workers=%d: Ensure swallowed the panics", workers)
		}
		var pe *RunPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Ensure error %v does not unwrap to *RunPanicError", workers, err)
		}
		if want := fakeCfg(666).Hash(); pe.Hash != want {
			t.Errorf("workers=%d: reported hash %.12s, want the spec-order-first panic %.12s", workers, pe.Hash, want)
		}
		msgs = append(msgs, err.Error())
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Fatalf("fail-fast error text diverges across worker counts:\n%s\n%s", msgs[0], msgs[i])
		}
	}
}

// TestEnsureKeepGoingJoinsAll: keep-going mode runs everything despite
// failures, joins every distinct failure in spec order, and the joined
// message is byte-identical at every worker count.
func TestEnsureKeepGoingJoinsAll(t *testing.T) {
	cfgs := []config.Config{
		fakeCfg(666), fakeCfg(1), fakeCfg(777), fakeCfg(2),
		fakeCfg(3), fakeCfg(888), fakeCfg(666), // duplicate failure: reported once
	}
	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		r.run = fakeSim(666, 777, 888)
		r.SetKeepGoing(true)
		err := r.Ensure(cfgs)
		if err == nil {
			t.Fatalf("workers=%d: keep-going Ensure swallowed the failures", workers)
		}
		if got := r.SimRuns(); got != 3 {
			t.Errorf("workers=%d: keep-going executed %d healthy runs, want 3 (failures must not stop dispatch)", workers, got)
		}
		for _, seed := range []string{"666", "777", "888"} {
			if !strings.Contains(err.Error(), "seed "+seed) {
				t.Errorf("workers=%d: joined error is missing the seed-%s failure:\n%v", workers, seed, err)
			}
		}
		if n := strings.Count(err.Error(), "exp: run "+fakeCfg(666).Hash()[:12]); n != 1 {
			t.Errorf("workers=%d: duplicate config reported %d times, want once", workers, n)
		}
		msgs = append(msgs, err.Error())
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Fatalf("keep-going error text diverges across worker counts:\n%s\n%s", msgs[0], msgs[i])
		}
	}
}

// TestRunTimeout: a hung simulation trips the watchdog with a typed,
// hash-carrying error instead of hanging the sweep.
func TestRunTimeout(t *testing.T) {
	r := NewRunner(config.Test(), nil, 1)
	r.run = func(cfg config.Config, _ *warmSlot) (sim.Result, error) {
		if cfg.Seed == 13 {
			select {} // a run that never returns
		}
		return sim.Result{IPC: []float64{1}}, nil
	}
	r.SetRunTimeout(50 * time.Millisecond)

	if _, err := r.Run(fakeCfg(1)); err != nil {
		t.Fatalf("fast run tripped the watchdog: %v", err)
	}
	_, err := r.Run(fakeCfg(13))
	var te *RunTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("hung run returned %v, want *RunTimeoutError", err)
	}
	if te.Hash != fakeCfg(13).Hash() || te.Timeout != 50*time.Millisecond {
		t.Fatalf("timeout error carries (%q, %v), want the run's hash and 50ms", te.Hash, te.Timeout)
	}
}

// TestSweepSurvivesCacheFSFailure: with the persistent cache's
// filesystem completely dead, a sweep must still complete from pure
// computation — the cache degrades to nothing, surfacing the failure
// only through CacheErr/WarnCacheErr.
func TestSweepSurvivesCacheFSFailure(t *testing.T) {
	fault := cachefs.NewFault(cachefs.OS())
	cache, err := rescache.OpenFS(t.TempDir(), fault)
	if err != nil {
		t.Fatal(err)
	}
	fault.CrashAt(cachefs.OpReadFile, 1) // every cache operation fails from the first Get on

	tbl, r, err := RunSweep(parallelSweepSpec(), SweepOpts{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatalf("sweep failed on a dead cache filesystem: %v", err)
	}
	if tbl == nil {
		t.Fatal("sweep returned no table")
	}
	if got := r.SimRuns(); got != 4 {
		t.Fatalf("sweep executed %d simulations, want all 4 (dead cache = no hits)", got)
	}
	if r.CacheErr() == nil {
		t.Fatal("CacheErr did not surface the failed cache writes")
	}
	var buf bytes.Buffer
	WarnCacheErr(&buf, r)
	if !strings.Contains(buf.String(), "cache write failed") {
		t.Fatalf("WarnCacheErr printed %q, want the standard warning", buf.String())
	}
	// A healthy runner warns nothing.
	buf.Reset()
	WarnCacheErr(&buf, NewRunner(config.Test(), nil, 1))
	WarnCacheErr(&buf, nil)
	if buf.Len() != 0 {
		t.Fatalf("WarnCacheErr printed %q for a healthy runner", buf.String())
	}
}

// TestKeepGoingSweepResumable: a keep-going sweep with some failing
// points persists every successful point, so a rerun after the failures
// are fixed recomputes nothing that already succeeded.
func TestKeepGoingSweepResumable(t *testing.T) {
	dir := t.TempDir()
	cache, err := rescache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := parallelSweepSpec()
	// Sabotage half the sweep: a trace path that does not exist passes
	// config validation (replay mode) but fails when the run opens it.
	spec.Axes = append(spec.Axes, SweepAxis{Name: "src", Values: []SweepPoint{
		{Label: "live", Set: raw(`{}`)},
		{Label: "ghost", Set: raw(`{"TracePath":"testdata/no-such-trace.dct","Benchmarks":[]}`)},
	}})

	tbl, r, err := RunSweep(spec, SweepOpts{Workers: 4, Cache: cache, KeepGoing: true})
	if err == nil {
		t.Fatal("keep-going sweep swallowed the ghost-trace failures")
	}
	if tbl != nil {
		t.Fatal("failed sweep returned a table")
	}
	if r == nil {
		t.Fatal("failed sweep returned no runner")
	}
	if got := r.SimRuns(); got != 4 {
		t.Fatalf("keep-going ran %d healthy points, want 4", got)
	}
	if n := strings.Count(err.Error(), "no-such-trace"); n != 4 {
		t.Fatalf("joined error reports %d ghost points, want 4:\n%v", n, err)
	}

	// Resume with the failures fixed (drop the ghost axis): every
	// surviving point must come from the cache.
	tbl2, r2, err := RunSweep(parallelSweepSpec(), SweepOpts{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if tbl2 == nil {
		t.Fatal("resumed sweep returned no table")
	}
	if got := r2.SimRuns(); got != 0 {
		t.Fatalf("resumed sweep re-simulated %d points, want 0 (all cached)", got)
	}
	if got := r2.CacheHits(); got != 4 {
		t.Fatalf("resumed sweep had %d cache hits, want 4", got)
	}
}

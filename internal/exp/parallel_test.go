package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/workload"
)

// TestParallelMatchesSequentialFig8 is the headline determinism
// guarantee of the parallel engine: the rendered Fig. 8 table must be
// byte-identical between one worker and many, because cells commit in
// spec order no matter which worker finished first.
func TestParallelMatchesSequentialFig8(t *testing.T) {
	mixes := workload.TableI()[:2]
	seq, err := NewRunner(config.Test(), mixes, 1).Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(config.Test(), mixes, 8).Figure("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("Fig8 diverges between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
}

// parallelSweepSpec is a small two-axis sweep used by the determinism
// tests: 2x2 cartesian points at the test scale.
func parallelSweepSpec() SweepSpec {
	return SweepSpec{
		Schema: config.SchemaVersion,
		Name:   "parallel-determinism",
		Scale:  "test",
		Base:   raw(`{"Benchmarks":["mcf","lbm","libquantum","omnetpp"]}`),
		Axes: []SweepAxis{
			{Name: "design", Values: []SweepPoint{
				{Label: "CD", Set: raw(`{"Design":"CD"}`)},
				{Label: "DCA", Set: raw(`{"Design":"DCA"}`)},
			}},
			{Name: "org", Values: []SweepPoint{
				{Label: "sa", Set: raw(`{"Org":"set-assoc"}`)},
				{Label: "dm", Set: raw(`{"Org":"direct-mapped"}`)},
			}},
		},
		Metrics: []string{"totalNS", "readHitRate"},
	}
}

// TestParallelMatchesSequentialSweep pins the same guarantee for the
// sweep engine across every output format: text, CSV, and JSON renders
// must be byte-identical between -j 1 and -j 8.
func TestParallelMatchesSequentialSweep(t *testing.T) {
	spec := parallelSweepSpec()
	render := func(workers int) map[string][]byte {
		t.Helper()
		tbl, _, err := RunSweep(spec, SweepOpts{Workers: workers})
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
	seq, par := render(1), render(8)
	for format, want := range seq {
		if !bytes.Equal(par[format], want) {
			t.Errorf("sweep %s output diverges between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
				format, want, par[format])
		}
	}
}

// TestValidateWorkers: -j 0 and negatives are configuration errors, not
// silently-substituted defaults.
func TestValidateWorkers(t *testing.T) {
	for _, j := range []int{0, -1, -8} {
		if err := ValidateWorkers(j); err == nil {
			t.Errorf("ValidateWorkers(%d) accepted", j)
		}
	}
	for _, j := range []int{1, 2, 64} {
		if err := ValidateWorkers(j); err != nil {
			t.Errorf("ValidateWorkers(%d) rejected: %v", j, err)
		}
	}
}

// TestRunSweepRejectsBadWorkers: the sweep engine refuses a nonsensical
// worker count before any simulation runs.
func TestRunSweepRejectsBadWorkers(t *testing.T) {
	for _, j := range []int{0, -3} {
		_, r, err := RunSweep(parallelSweepSpec(), SweepOpts{Workers: j})
		if err == nil || !strings.Contains(err.Error(), "workers") {
			t.Fatalf("RunSweep(workers=%d) = %v, want workers error", j, err)
		}
		if r != nil {
			t.Fatalf("RunSweep(workers=%d) returned a runner alongside the error", j)
		}
	}
}

// TestEnsureSingleRun: a one-element batch must work at any pool width
// (the pool shrinks to the work, it does not idle-spin extra workers).
func TestEnsureSingleRun(t *testing.T) {
	r := NewRunner(config.Test(), nil, 8)
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	if err := r.Ensure([]config.Config{cfg}); err != nil {
		t.Fatal(err)
	}
	if got := r.SimRuns(); got != 1 {
		t.Fatalf("single-run Ensure executed %d simulations, want 1", got)
	}
	// The memoized result must be readable back.
	if res := r.result(cfg.Hash()); len(res.IPC) != 4 {
		t.Fatalf("result has %d IPCs, want 4", len(res.IPC))
	}
}

// TestEnsureFirstErrorDeterministic: with several failing configs in one
// batch, Ensure must always report the earliest one in dispatch order —
// here spec order, as every config is a warm group of its own — at every
// worker count, even though goroutine completion order varies.
func TestEnsureFirstErrorDeterministic(t *testing.T) {
	good := func(seed uint64) config.Config {
		cfg := config.Test()
		cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
		cfg.Seed = seed
		return cfg
	}
	badA := good(100)
	badA.Benchmarks = []string{"nope-a"}
	badB := good(200)
	badB.Benchmarks = []string{"nope-b"}
	cfgs := []config.Config{good(1), badA, good(2), good(3), badB}

	for _, workers := range []int{1, 2, 8} {
		err := NewRunner(config.Test(), nil, workers).Ensure(cfgs)
		if err == nil {
			t.Fatalf("workers=%d: Ensure accepted unknown benchmarks", workers)
		}
		if !strings.Contains(err.Error(), "nope-a") {
			t.Errorf("workers=%d: Ensure reported %v, want the spec-order-first error (nope-a)", workers, err)
		}
	}
}

// TestEnsureErrorCancelsSiblings: once a run fails, no further queued
// run may start. With one worker and the failure first in spec order,
// exactly zero simulations may execute.
func TestEnsureErrorCancelsSiblings(t *testing.T) {
	bad := config.Test()
	bad.Benchmarks = []string{"no-such-benchmark"}
	var cfgs []config.Config
	cfgs = append(cfgs, bad)
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := config.Test()
		cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	r := NewRunner(config.Test(), nil, 1)
	if err := r.Ensure(cfgs); err == nil {
		t.Fatal("Ensure accepted an unknown benchmark")
	}
	if got := r.SimRuns(); got != 0 {
		t.Fatalf("siblings ran after the failure: %d simulations executed, want 0", got)
	}
}

// TestEnsureProgressEvents: every distinct run produces exactly one
// completion event, monotonically counting up to the total, and the
// counters add up.
func TestEnsureProgressEvents(t *testing.T) {
	r := NewRunner(config.Test(), nil, 4)
	var events int64
	var lastDone, total int64
	r.SetProgress(func(p Progress) {
		// Events are serialized by the runner, so plain reads/writes
		// would do; atomics keep the race detector explicit about it.
		n := atomic.AddInt64(&events, 1)
		if int64(p.Done) <= atomic.LoadInt64(&lastDone) {
			t.Errorf("event %d: Done=%d did not advance past %d", n, p.Done, lastDone)
		}
		atomic.StoreInt64(&lastDone, int64(p.Done))
		atomic.StoreInt64(&total, int64(p.Total))
	})
	var cfgs []config.Config
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := config.Test()
		cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	cfgs = append(cfgs, cfgs[0]) // duplicate: must not produce an extra event
	if err := r.Ensure(cfgs); err != nil {
		t.Fatal(err)
	}
	if events != 5 || total != 5 || lastDone != 5 {
		t.Fatalf("progress saw %d events, total %d, final done %d; want 5/5/5", events, total, lastDone)
	}
}

// TestProgressETA sanity-checks the linear extrapolation.
func TestProgressETA(t *testing.T) {
	p := Progress{Done: 2, Total: 6, Elapsed: 10}
	if got := p.ETA(); got != 20 {
		t.Fatalf("ETA = %d, want 20", got)
	}
	if (Progress{Done: 0, Total: 6}).ETA() != 0 {
		t.Fatal("ETA before the first completion must be 0")
	}
	if (Progress{Done: 6, Total: 6, Elapsed: 10}).ETA() != 0 {
		t.Fatal("ETA after the last completion must be 0")
	}
}

// TestSweepJSONStableAcrossWorkers re-renders the sweep JSON through a
// decode/encode round trip to prove row ordering (not just formatting)
// is what is stable.
func TestSweepJSONStableAcrossWorkers(t *testing.T) {
	spec := parallelSweepSpec()
	rows := func(workers int) [][]string {
		t.Helper()
		tbl, _, err := RunSweep(spec, SweepOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return tbl.Rows()
	}
	a, b := rows(1), rows(8)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("sweep rows diverge between worker counts:\n%s\n%s", aj, bj)
	}
}

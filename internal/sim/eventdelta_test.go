package sim

import (
	"sort"
	"testing"

	"dcasim/internal/core"
	"dcasim/internal/event"
	"dcasim/internal/simtime"
)

// TestEventDeltaCharacterization instruments one full simulation run
// (the BenchmarkSimOneRun mix) and histograms the schedule deltas
// (t - now) the models produce. It pins the shape of the kernel's
// input, which the event benchmarks in the root package
// (BenchmarkEventDRAMClustered in particular) reproduce:
//
//   - schedule deltas cluster on a handful of fixed values — DRAM
//     timing constants, CPU-cycle multiples, the off-chip latency;
//   - ≥ 90% of deltas are at most 65.5 ns, a few DRAM accesses ahead;
//   - no delta reaches 2^40 ps (~1.1 s).
//
// If a future timing-model change invalidates these (say, a refresh
// model scheduling multi-ms deltas en masse), this test says that the
// event benchmarks no longer measure what a run does.
func TestEventDeltaCharacterization(t *testing.T) {
	hist := map[simtime.Time]int64{}
	testEngineHook = func(e *event.Engine) {
		e.SetScheduleHook(func(now, at simtime.Time) { hist[at-now]++ })
	}
	defer func() { testEngineHook = nil }()

	cfg := testConfig()
	cfg.Benchmarks = []string{"soplex", "mcf", "gcc", "libquantum"}
	cfg.Design = core.DCA
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	var total int64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		t.Fatal("schedule hook observed no events")
	}

	// Sort deltas by frequency for reporting and the cluster pin.
	deltas := make([]simtime.Time, 0, len(hist))
	for d := range hist {
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool {
		if hist[deltas[i]] != hist[deltas[j]] {
			return hist[deltas[i]] > hist[deltas[j]]
		}
		return deltas[i] < deltas[j]
	})

	// Pin 1: >= 90% of schedules are either near-immediate core/pipeline
	// events (delta under 2.048 ns — retire spacing, back-to-back
	// issue) or sit on one of the top 8 fixed
	// DRAM-path constants (observed: the row access + burst sum at
	// 11.33 ns dominates with ~54%, the turnaround path at 27.33 ns adds
	// ~15%, off-chip at 50 ns ~4%).
	const nearImmediate = 8 * 256 * simtime.Picosecond
	var clustered int64
	k := 0
	for _, d := range deltas {
		if d < nearImmediate {
			clustered += hist[d]
		} else if k < 8 {
			clustered += hist[d]
			k++
		}
	}
	if frac := float64(clustered) / float64(total); frac < 0.90 {
		t.Errorf("near-immediate deltas plus the top 8 fixed constants cover only %.1f%% of %d schedules, want >= 90%% — event deltas no longer cluster on fixed timing constants",
			100*frac, total)
	}

	// Pin 2: >= 90% of deltas are under 65.536 ns.
	const shortRange = 65536 * simtime.Picosecond
	var inner int64
	for d, n := range hist {
		if d < shortRange {
			inner += n
		}
	}
	if frac := float64(inner) / float64(total); frac < 0.90 {
		t.Errorf("only %.1f%% of schedule deltas are under %v, want >= 90%%", 100*frac, shortRange)
	}

	// Pin 3: no real workload schedules 2^40 ps (~1.1 s) ahead.
	const farFuture = simtime.Time(1) << 40
	for d, n := range hist {
		if d >= farFuture {
			t.Errorf("%d schedules at delta %v reach %v: no model is supposed to schedule that far ahead", n, d, farFuture)
		}
	}

	if testing.Verbose() {
		t.Logf("%d schedules, %d distinct deltas; top:", total, len(deltas))
		n := 16
		if len(deltas) < n {
			n = len(deltas)
		}
		for _, d := range deltas[:n] {
			t.Logf("  %8d ps  %7d  (%5.1f%%)", int64(d), hist[d], 100*float64(hist[d])/float64(total))
		}
	}
}

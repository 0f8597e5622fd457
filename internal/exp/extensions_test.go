package exp

import (
	"strings"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/simtime"
)

// TestTWTRBaselineSharesRuns: patching the Table II tWTR value must
// produce a config that hashes identically to the untouched base, so the
// twtr study's 5 ns column reuses the main figures' runs instead of
// re-simulating them.
func TestTWTRBaselineSharesRuns(t *testing.T) {
	base := config.Test()
	patched, err := base.Patch(raw(`{"Timing":{"TWTR":%d}}`, int64(simtime.FromNS(5))))
	if err != nil {
		t.Fatal(err)
	}
	if patched.Hash() != base.Hash() {
		t.Fatal("the Table II tWTR patch must hash to the baseline config for run reuse")
	}
	other, err := base.Patch(raw(`{"Timing":{"TWTR":%d}}`, int64(simtime.FromNS(10))))
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash() == base.Hash() {
		t.Fatal("a non-default tWTR must hash differently")
	}
}

func TestTWTRSweep(t *testing.T) {
	r := testRunner(t, 1)
	tbl, err := r.Figure("twtr")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"2.5ns", "5ns", "10ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("TWTR sweep missing %s row:\n%s", want, out)
		}
	}
}

func TestSchedulerStudy(t *testing.T) {
	r := testRunner(t, 1)
	tbl, err := r.Figure("sched")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"BLISS", "FR-FCFS", "FCFS"} {
		if !strings.Contains(out, want) {
			t.Errorf("scheduler study missing %s:\n%s", want, out)
		}
	}
}

func TestBEARStudy(t *testing.T) {
	r := testRunner(t, 1)
	tbl, err := r.Figure("bear")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "BEAR+DCA") {
		t.Fatalf("BEAR study missing rows:\n%s", tbl)
	}
}

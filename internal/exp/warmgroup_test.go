package exp

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
	"dcasim/internal/workload"
)

// warmUpCount returns how many functional warm-ups the runner performed.
func (r *Runner) warmUpCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.warmUps
}

// TestFig8SharesWarmUps: Fig. 8 over one mix simulates 14 configs — the
// mix under three designs and two organizations, plus eight alone runs,
// one per benchmark and organization — but warms only 5 times: once for
// the mix and once per benchmark, each warm-up filling both
// organizations' contents. A rerun against the warm result cache does
// neither.
func TestFig8SharesWarmUps(t *testing.T) {
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for pass, want := range [][2]int64{{14, 5}, {0, 0}} {
		r := NewRunner(config.Test(), workload.TableI()[:1], 1)
		r.SetCache(cache)
		if _, err := r.Figure("fig8"); err != nil {
			t.Fatal(err)
		}
		if got := [2]int64{r.SimRuns(), r.warmUpCount()}; got != want {
			t.Errorf("pass %d: %d simulations and %d warm-ups, want %d and %d", pass, got[0], got[1], want[0], want[1])
		}
	}
}

// TestAllFiguresShareWarmUps pins the warm-ups of a cold regeneration of
// every registered figure, one Figure call each on one worker over two
// mixes: each call groups its new runs by warm key, across organizations.
func TestAllFiguresShareWarmUps(t *testing.T) {
	r := NewRunner(config.Test(), workload.TableI()[:2], 1)
	for _, name := range FigureNames() {
		if _, err := r.Figure(name); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := [2]int64{r.SimRuns(), r.warmUpCount()}, [2]int64{90, 21}; got != want {
		t.Errorf("%d simulations and %d warm-ups, want %d and %d", got[0], got[1], want[0], want[1])
	}
}

// TestWarmUpsFillOnlyOrganizationsLeftToSimulate: a warm-up fills the
// contents only of the organizations its group still has to simulate.
// Fig. 10 (set-associative) fills a result cache; a fresh runner's
// Fig. 8 over the same mix is then served its 7 set-associative runs
// from the cache and simulates the 7 direct-mapped ones, and none of its
// 5 warm-ups fills both organizations.
func TestWarmUpsFillOnlyOrganizationsLeftToSimulate(t *testing.T) {
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mixes := workload.TableI()[:1]
	fill := NewRunner(config.Test(), mixes, 1)
	fill.SetCache(cache)
	if _, err := fill.Figure("fig10"); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(config.Test(), mixes, 1)
	r.SetCache(cache)
	var warmedBoth []bool
	r.run = func(cfg config.Config, s *warmSlot) (sim.Result, error) {
		if cfg.Org != dcache.DirectMapped {
			t.Errorf("%v/%v simulated; the cache holds it", cfg.Design, cfg.Org)
		}
		if s.w == nil {
			warmedBoth = append(warmedBoth, s.both)
		}
		return r.simulate(cfg, s)
	}
	if _, err := r.Figure("fig8"); err != nil {
		t.Fatal(err)
	}
	if got := [3]int64{r.SimRuns(), r.CacheHits(), r.warmUpCount()}; got != [3]int64{7, 7, 5} {
		t.Errorf("%d simulations, %d cache hits and %d warm-ups, want 7, 7 and 5", got[0], got[1], got[2])
	}
	if want := make([]bool, 5); !reflect.DeepEqual(warmedBoth, want) {
		t.Errorf("warm-ups filled both organizations: %v, want %v", warmedBoth, want)
	}
}

// groupCfgs returns configs that share one warm key: mcf/lbm/libquantum/
// omnetpp on the test machine under each design.
func groupCfgs(org dcache.Org, seed uint64, mod func(*config.Config)) []config.Config {
	var cfgs []config.Config
	for _, d := range []core.Design{core.CD, core.ROD, core.DCA} {
		cfg := config.Test()
		cfg.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
		cfg.Org, cfg.Seed, cfg.Design = org, seed, d
		if mod != nil {
			mod(&cfg)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// checkIndependent fails unless every config's memoized result equals an
// independent sim.Run of it.
func checkIndependent(t *testing.T, r *Runner, cfgs []config.Config) {
	t.Helper()
	for _, cfg := range cfgs {
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.result(cfg.Hash()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v/%v: grouped result diverges from an independent run", cfg.Design, cfg.Org)
		}
	}
}

// TestWarmJournalOverflowRewarms: a timed region long enough for the
// tag-store journal to outgrow the test machine's 4 MB cache drops the
// shared state, and the group's next member warms again — one extra
// warm-up, identical results.
func TestWarmJournalOverflowRewarms(t *testing.T) {
	for _, tc := range []struct {
		name    string
		instr   int64
		warmUps int64
	}{
		{"fits", config.Test().InstrPerCore, 1},
		{"overflows", 400_000, 2},
	} {
		cfgs := groupCfgs(dcache.SetAssoc, 1, func(c *config.Config) { c.InstrPerCore = tc.instr })[:2]
		r := NewRunner(config.Test(), nil, 1)
		if err := r.Ensure(cfgs); err != nil {
			t.Fatal(err)
		}
		if got := r.warmUpCount(); got != tc.warmUps {
			t.Errorf("%s: %d warm-ups for a group of 2, want %d", tc.name, got, tc.warmUps)
		}
		checkIndependent(t, r, cfgs)
	}
}

// TestWarmGroupFailFastDispatchOrder: fail-fast reports the first failure
// in dispatch order, identically at every worker count. The failures sit
// at the end of the first group and the start of the second, and the
// groups interleave in spec order: at -j 1 the second group never starts,
// while at -j 2/8 its failure lands first in spec order and in time, and
// the first group must still run on to its own failure.
func TestWarmGroupFailFastDispatchOrder(t *testing.T) {
	a := groupCfgs(dcache.SetAssoc, 1, nil)
	b := groupCfgs(dcache.SetAssoc, 2, nil)
	cfgs := []config.Config{a[0], b[0], a[1], b[1], a[2], b[2]}
	lastA, firstB := a[2].Hash(), b[0].Hash()
	var msgs []string
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(config.Test(), nil, workers)
		r.run = func(cfg config.Config, s *warmSlot) (sim.Result, error) {
			switch cfg.Hash() {
			case lastA:
				panic("injected panic at the end of the first group")
			case firstB:
				return sim.Result{}, errors.New("injected failure at the start of the second group")
			}
			return sim.Result{IPC: []float64{1}}, nil
		}
		err := r.Ensure(cfgs)
		var pe *RunPanicError
		if !errors.As(err, &pe) || pe.Hash != lastA {
			t.Fatalf("workers=%d: Ensure reported %v, want the first group's panic", workers, err)
		}
		msgs = append(msgs, err.Error())
	}
	for i := 1; i < len(msgs); i++ {
		if msgs[i] != msgs[0] {
			t.Fatalf("fail-fast error text diverges across worker counts:\n%s\n%s", msgs[0], msgs[i])
		}
	}
}

// TestWarmGroupMidFailureRewarms: a panic in the middle set-associative
// member of a group that spans both organizations, and a watchdog
// timeout in its middle direct-mapped member, fail those members only.
// The panic strikes after the member handed its warm state back, and the
// runaway keeps running after the watchdog gave up on it; neither state
// may reach the next member, which warms afresh, both organizations
// again (under -race, a reused runaway state would also race). Every
// other member matches its independent run.
func TestWarmGroupMidFailureRewarms(t *testing.T) {
	small := func(c *config.Config) { c.InstrPerCore, c.WarmMemops = 10_000, 10_000 }
	sa := groupCfgs(dcache.SetAssoc, 3, small)
	dm := groupCfgs(dcache.DirectMapped, 3, small)
	panicky, hung := sa[1].Hash(), dm[1].Hash()

	release, finished := make(chan struct{}), make(chan struct{})
	r := NewRunner(config.Test(), nil, 2)
	r.SetKeepGoing(true)
	r.SetRunTimeout(2 * time.Second)
	r.run = func(cfg config.Config, s *warmSlot) (sim.Result, error) {
		res, err := r.simulate(cfg, s)
		switch cfg.Hash() {
		case panicky:
			panic(fmt.Sprintf("injected panic after %v/%v ran", cfg.Design, cfg.Org))
		case hung:
			defer close(finished)
			<-release
		}
		return res, err
	}
	err := r.Ensure(append(append([]config.Config(nil), sa...), dm...))
	close(release)
	<-finished

	var pe *RunPanicError
	var te *RunTimeoutError
	if !errors.As(err, &pe) || pe.Hash != panicky {
		t.Fatalf("Ensure reported %v, want the middle SA member's panic", err)
	}
	if !errors.As(err, &te) || te.Hash != hung {
		t.Fatalf("Ensure reported %v, want the middle DM member's timeout", err)
	}
	if got := r.SimRuns(); got != 4 {
		t.Errorf("%d simulations committed, want the 4 healthy members", got)
	}
	if got := r.warmUpCount(); got != 3 {
		t.Errorf("%d warm-ups, want 3: the group warms, then warms again after each failure", got)
	}
	checkIndependent(t, r, []config.Config{sa[0], sa[2], dm[0], dm[2]})
}

// Package exp is the evaluation harness: a memoizing, cache-backed
// simulation runner plus declarative table specs that regenerate every
// table and figure of the paper (§V–§VI).
//
// A simulation run is a pure function of its config, so runs are
// content-addressed by config.Config.Hash(): the in-memory memo and the
// optional persistent rescache.Cache are both keyed by that hash. The
// figures share most of their underlying runs (e.g. Figs. 8, 10, 12, 14,
// and 16 all consume the same set-associative sweeps), so the whole
// evaluation costs one pass over the distinct configurations,
// parallelised across CPUs — and with a warm persistent cache, zero
// simulations at all.
package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/rescache"
	"dcasim/internal/sim"
	"dcasim/internal/workload"
)

// Runner memoizes simulation runs for the experiment drivers.
type Runner struct {
	base       config.Config
	mixes      []workload.Mix
	workers    int
	cache      *rescache.Cache
	progress   ProgressFunc
	replicates int // default replicate count for Table; specs may override

	run        func(config.Config, *warmSlot) (sim.Result, error) // the simulator (simulate); tests substitute panicking/hanging fakes
	keepGoing  bool                                               // Ensure collects every failure instead of cancelling on the first
	runTimeout time.Duration                                      // per-run watchdog; <= 0 disables

	patches patchMemo // the spec patches tableGrid has parsed

	mu        sync.Mutex
	results   map[string]sim.Result // by config.Config.Hash()
	errs      map[string]error
	inflight  map[string]*call
	simRuns   int64 // simulations actually executed (not memo or cache hits)
	warmUps   int64 // functional warm-ups those simulations needed
	cacheHits int64 // persistent-cache hits
	cacheErr  error // first failed cache write, surfaced via CacheErr
}

// warmSlot carries a worker's warm state from one member's run to the
// next. Only the run of the current member touches it. After a failure
// the worker goes on with a fresh slot, so a runaway run that the
// watchdog abandoned keeps sole ownership of the state it was using.
type warmSlot struct {
	w     *sim.Warmed // state the next member runs over; nil warms afresh
	keep  bool        // another member of the group will simulate: keep w for it
	both  bool        // the members left to simulate use both organizations: a warm-up fills both
	spare *sim.Warmed // a spent state whose memory the next warm-up reuses
}

// call is the in-flight record of one run (singleflight): concurrent
// requesters for the same config hash block on done and share the one
// result instead of duplicating a full simulation.
type call struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// NewRunner builds a runner over a base config and workload mixes.
// workers <= 0 selects GOMAXPROCS.
func NewRunner(base config.Config, mixes []workload.Mix, workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		base:     base,
		mixes:    mixes,
		workers:  workers,
		results:  make(map[string]sim.Result),
		errs:     make(map[string]error),
		inflight: make(map[string]*call),
	}
	r.run = r.simulate
	return r
}

// simulate is the runner's simulator. A config run on its own (s == nil)
// warms its organization, then runs its timed region. A warm-group
// member runs over the state the previous member left in s, warming
// afresh (its organization, or both when s.both is set, over s.spare's
// memory) when there is none. After a successful run it leaves the
// state in s for the next member when s.keep is set and the state
// survived, and as s.spare otherwise.
func (r *Runner) simulate(cfg config.Config, s *warmSlot) (sim.Result, error) {
	var w, spare *sim.Warmed
	keep := false
	if s != nil {
		w, s.w, keep = s.w, nil, s.keep
		spare, s.spare = s.spare, nil
	}
	if w == nil {
		r.mu.Lock()
		r.warmUps++
		r.mu.Unlock()
		warm := []dcache.Org{cfg.Org}
		if s != nil && s.both {
			warm = orgs
		}
		var err error
		if w, err = sim.Warm(cfg, warm, spare); err != nil {
			return sim.Result{}, err
		}
	}
	res, err := w.Run(cfg, keep)
	switch {
	case err != nil || s == nil:
	case keep && !w.Spent():
		s.w = w
	default:
		s.spare = w
	}
	return res, err
}

// SetCache attaches a persistent result cache, consulted before running
// any simulation and updated after each one.
func (r *Runner) SetCache(c *rescache.Cache) { r.cache = c }

// SetProgress installs a progress observer for Ensure passes (nil
// disables reporting). Set it before the first Run/Ensure/Table call.
func (r *Runner) SetProgress(f ProgressFunc) { r.progress = f }

// SetKeepGoing selects Ensure's failure mode: false (the default) stops
// dispatching on the first failure and reports the first error in
// dispatch order; true runs every config and reports all failures joined
// in spec order — the resumable mode, where every run that can succeed
// lands in the cache even when some cannot. Set it before the first
// Ensure call.
func (r *Runner) SetKeepGoing(v bool) { r.keepGoing = v }

// SetRunTimeout arms a per-run watchdog: a simulation that exceeds d
// fails with *RunTimeoutError instead of hanging the sweep. d <= 0 (the
// default) disables it. Set it before the first Run/Ensure call.
func (r *Runner) SetRunTimeout(d time.Duration) { r.runTimeout = d }

// SetReplicates sets the default replicate count Table uses when a spec
// does not carry its own: every grid cell fans out into n seed-derived
// runs and renders as mean ±CI95. n <= 1 (and the zero default) keeps
// the single-run behaviour, bit-identical to the unreplicated engine.
// A spec's own Replicates field, when positive, wins over this default.
// A count above 1000 fails Table before any simulation.
func (r *Runner) SetReplicates(n int) { r.replicates = n }

// maxReplicates bounds every replicate count: the -seeds flags, a
// spec's replicates field and the runner default.
const maxReplicates = 1000

// ValidateReplicates rejects a replicate count outside 1..1000 up front,
// so a bad -seeds flag fails before any simulation work.
func ValidateReplicates(n int) error {
	if n < 1 || n > maxReplicates {
		return fmt.Errorf("exp: replicates must be in 1..%d, got %d", maxReplicates, n)
	}
	return nil
}

// replicateCfg returns the config of seeded replicate k of a run:
// replicate 0 is the config itself, and k > 0 shifts the seed by
// config.ReplicateSeed. The result is an ordinary config, so replicates
// content-address, cache, and deduplicate exactly like any other run.
func replicateCfg(cfg config.Config, k int) config.Config {
	if k == 0 {
		return cfg
	}
	cfg.Seed = config.ReplicateSeed(cfg.Seed, k)
	return cfg
}

// ReplicateConfigs expands cfg into its n seeded replicate configs:
// element 0 is cfg itself, element k carries the k-th replicate seed.
func ReplicateConfigs(cfg config.Config, n int) []config.Config {
	cfgs := make([]config.Config, n)
	for k := range cfgs {
		cfgs[k] = replicateCfg(cfg, k)
	}
	return cfgs
}

// SimRuns returns how many simulations this runner actually executed —
// memo and persistent-cache hits excluded. A second evaluation pass
// against a warm cache must report zero.
func (r *Runner) SimRuns() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simRuns
}

// CacheHits returns how many runs were satisfied by the persistent cache.
func (r *Runner) CacheHits() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheHits
}

// CacheErr returns the first error encountered writing the persistent
// cache, if any. Cache write failures never fail a run — the result was
// already computed — but callers may want to warn that the next pass
// will not be warm.
func (r *Runner) CacheErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheErr
}

// Mixes returns the workload mixes under evaluation.
func (r *Runner) Mixes() []workload.Mix { return r.mixes }

// BaseConfig returns a copy of the base configuration.
func (r *Runner) BaseConfig() config.Config { return r.base }

// mixConfig specializes a variant config to one mix: the mix's
// benchmarks and a per-mix seed derived from the base seed.
func mixConfig(variant config.Config, base config.Config, m workload.Mix) config.Config {
	cfg := variant
	// Copy: the config escapes into a concurrently running simulation,
	// and sharing the mix's backing array would alias every run started
	// from the same mix.
	cfg.Benchmarks = append([]string(nil), m.Benchmarks[:]...)
	cfg.Seed = base.Seed + uint64(m.ID)*1_000_003
	return cfg
}

// aloneConfig is the single-benchmark run whose IPC is the denominator
// of the weighted-speedup metric: the base config under the given
// organization, on the CD normalization baseline.
func (r *Runner) aloneConfig(bench string, org dcache.Org) config.Config {
	cfg := r.base
	cfg.Org = org
	cfg.Benchmarks = []string{bench}
	cfg.Design = core.CD
	return cfg
}

// Run returns the simulation result for cfg, computing it at most once
// per runner: the in-memory memo, then the persistent cache, then an
// actual simulation. Concurrent callers for the same config hash join
// the in-flight computation (singleflight). A config that cannot be
// hashed (config.Config.TryHash) is an error.
func (r *Runner) Run(cfg config.Config) (sim.Result, error) {
	h, err := cfg.TryHash()
	if err != nil {
		return sim.Result{}, err
	}
	return r.runIn(cfg, h, nil, false)
}

// runIn is Run for cfg, whose hash is h, as a member of a warm group: a
// simulation it needs runs over the group's shared state in s. probed
// says resolve has read the persistent cache for h, so runIn does not
// read it again.
func (r *Runner) runIn(cfg config.Config, h string, s *warmSlot, probed bool) (sim.Result, error) {
	r.mu.Lock()
	if res, ok := r.results[h]; ok {
		r.mu.Unlock()
		return res, nil
	}
	if err := r.errs[h]; err != nil {
		r.mu.Unlock()
		return sim.Result{}, err
	}
	if c, ok := r.inflight[h]; ok {
		r.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	r.inflight[h] = c
	r.mu.Unlock()

	fromCache := false
	if r.cache != nil {
		// Validate before consulting the cache: a bad config must fail
		// loudly even if a stale entry happens to exist under its hash.
		if c.err = cfg.Validate(); c.err == nil && !probed {
			c.res, fromCache = r.cache.Get(h)
		}
	}
	var putErr error
	if !fromCache && c.err == nil {
		c.res, c.err = r.execute(cfg, s)
		if c.err == nil && r.cache != nil {
			putErr = r.cache.Put(h, c.res)
		}
	}

	r.mu.Lock()
	switch {
	case c.err != nil:
		r.errs[h] = c.err
	case fromCache:
		r.results[h] = c.res
		r.cacheHits++
	default:
		r.results[h] = c.res
		r.simRuns++
	}
	if putErr != nil && r.cacheErr == nil {
		r.cacheErr = putErr
	}
	delete(r.inflight, h)
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// resolve serves the run of cfg (hash h) as runIn would without
// simulating it, and reports whether it is left to simulate. A run in
// the memo, failed or in flight is not: runIn returns or waits for it.
// Otherwise resolve reads the persistent cache, as runIn does, and
// commits a hit to the memo, so runIn reads no entry twice. It commits
// only while no run of h is in flight, so a hit is counted once.
func (r *Runner) resolve(cfg config.Config, h string) (simulate bool) {
	known := func() bool {
		_, done := r.results[h]
		_, running := r.inflight[h]
		return done || running || r.errs[h] != nil
	}
	r.mu.Lock()
	done := known()
	r.mu.Unlock()
	if done || r.cache == nil || cfg.Validate() != nil {
		return !done
	}
	res, ok := r.cache.Get(h)
	if !ok {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !known() {
		r.results[h] = res
		r.cacheHits++
	}
	return false
}

// Ensure computes every missing config through a bounded worker pool and
// returns the first error in dispatch order. Duplicates are launched
// once: a joiner blocked on the singleflight would otherwise hold a
// worker slot for the whole in-flight simulation.
//
// The distinct configs are grouped by sim.WarmKey: groups in order of
// first appearance, members in spec order. Configs that differ only in
// organization share a key, so a group may span both organizations. A
// group is one dispatch unit. Its worker first resolves the members
// against the memo and the persistent cache, then runs them one after
// another over one functional warm-up (see sim.Warmed), which fills the
// DRAM-cache contents of the organizations the members left to simulate
// use and is kept only until the last of them: a member that fails
// drops the warm state and the next member warms afresh. A worker's next
// warm-up reuses the memory of the state its last group consumed.
//
// The pool dispatches the groups strictly in order, and a dispatched
// group runs until its own first failure even after another group's
// failure cancelled the pass. So the error Ensure reports is
// deterministic at every worker count: when a run fails, dispatch stops
// (in-flight groups finish, and at most one already-offered group —
// necessarily after the failing one — still starts), every group before
// the first failing group ran to completion, and that group ran up to
// its first failing member — making "first recorded error in dispatch
// order" independent of goroutine scheduling. Results are equally
// order-independent: runs commit into the hash-keyed memo and the
// renderer reads them back in spec order, so parallel output is
// bit-identical to sequential.
//
// With SetKeepGoing(true) a failure does not stop dispatch: every
// config runs (and every success lands in the persistent cache, so a
// partly-failing sweep is resumable), and Ensure returns all distinct
// failures joined in spec order — deterministic because the memo keys
// failures by hash and the final scan reads them back in spec order
// regardless of which worker hit them.
//
// A config that cannot be hashed fails the call before any run starts.
func (r *Runner) Ensure(cfgs []config.Config) error {
	hashes := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if hashes[i], err = cfg.TryHash(); err != nil {
			return fmt.Errorf("exp: config %d: %w", i, err)
		}
	}
	return r.ensure(cfgs, hashes)
}

// ensure is Ensure over configs whose hashes the caller has computed:
// hashes[i] is cfgs[i].Hash().
func (r *Runner) ensure(cfgs []config.Config, hashes []string) error {
	keepGoing := r.keepGoing
	var groups [][]int // indices into cfgs: distinct configs with one warm key, in spec order
	seen := make(map[string]bool, len(cfgs))
	groupOf := make(map[string]int)
	for i, cfg := range cfgs {
		if seen[hashes[i]] {
			continue
		}
		seen[hashes[i]] = true
		key := sim.WarmKey(cfg)
		if g, found := groupOf[key]; found {
			groups[g] = append(groups[g], i)
			continue
		}
		groupOf[key] = len(groups)
		groups = append(groups, []int{i})
	}
	total := len(seen)

	var (
		stop     = make(chan struct{}) // closed on the first failure
		stopOnce sync.Once
		cancel   = func() { stopOnce.Do(func() { close(stop) }) }

		progMu sync.Mutex // serializes progress events
		done   int
		start  = time.Now()
	)
	// In-order dispatch: an unbuffered channel hands out group g only
	// after every earlier group was handed out (the determinism proof
	// above leans on this).
	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for g := range groups {
			// Check stop before offering: with a worker already blocked
			// on idxCh both select cases would be ready and Go picks
			// randomly, which would keep dealing work after a failure.
			// If stop closes during the send itself, at most this one
			// group slips through (the next iteration's check returns).
			select {
			case <-stop:
				return
			default:
			}
			select {
			case idxCh <- g:
			case <-stop:
				return
			}
		}
	}()

	report := func() {
		if r.progress == nil {
			return
		}
		r.mu.Lock()
		p := Progress{Total: total, Simulated: r.simRuns, CacheHits: r.cacheHits}
		r.mu.Unlock()
		progMu.Lock()
		done++
		p.Done = done
		p.Elapsed = time.Since(start)
		r.progress(p)
		progMu.Unlock()
	}
	workers := r.workers
	if workers > len(groups) {
		workers = len(groups)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &warmSlot{}
			var left []int // the members of the group left to simulate
			for g := range idxCh {
				// Every received group runs to its own first failure,
				// even one that slipped through the dispatcher's send in
				// the same instant a failure cancelled the pass, and even
				// when another group fails meanwhile: in-order dispatch
				// means such a straggler comes strictly after the failing
				// group, so running it costs extra runs only — while
				// cutting a group short could skip a failure that a
				// one-worker pass would have reported first.
				s.w = nil // a group whose last member was served meanwhile leaves its state
				// Resolve the members first: the warm-up fills, and is
				// kept for, only the members left to simulate.
				left = left[:0]
				for _, i := range groups[g] {
					if r.resolve(cfgs[i], hashes[i]) {
						left = append(left, i)
					}
				}
				last, both := -1, false
				for _, i := range left {
					last, both = i, both || cfgs[i].Org != cfgs[left[0]].Org
				}
				for _, i := range groups[g] {
					s.keep, s.both = i != last, both
					_, err := r.runIn(cfgs[i], hashes[i], s, true)
					report()
					if err != nil {
						s = &warmSlot{} // the failed run may still hold the old one
						if !keepGoing {
							cancel()
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	cancel() // unblock the dispatcher if it is still offering work

	// An aborted pass (failure before every run completed) gets one
	// terminating event so a live renderer can finalize its output
	// before the error is reported.
	if r.progress != nil {
		progMu.Lock()
		if done < total {
			r.mu.Lock()
			p := Progress{Done: done, Total: total, Simulated: r.simRuns, CacheHits: r.cacheHits}
			r.mu.Unlock()
			p.Elapsed = time.Since(start)
			p.Final = true
			r.progress(p)
		}
		progMu.Unlock()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if !keepGoing {
		for _, g := range groups {
			for _, i := range g {
				if err := r.errs[hashes[i]]; err != nil {
					return runError(cfgs[i], hashes[i], err)
				}
			}
		}
		return nil
	}
	// Keep-going: report every distinct failure, in spec order. The
	// dedupe map is written and read in slice order, never ranged.
	var joined []error
	reported := make(map[string]bool, len(hashes))
	for i, h := range hashes {
		if err := r.errs[h]; err != nil && !reported[h] {
			reported[h] = true
			joined = append(joined, runError(cfgs[i], h, err))
		}
	}
	return errors.Join(joined...)
}

// runError names the failed run of cfg (hash h) in Ensure's report.
func runError(cfg config.Config, h string, err error) error {
	return fmt.Errorf("exp: run %.12s… (%v/%v %v seed %d): %w",
		h, cfg.Design, cfg.Org, cfg.Benchmarks, cfg.Seed, err)
}

// result returns the memoized run of hash h (Ensure must have succeeded
// for its config).
func (r *Runner) result(h string) sim.Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.results[h]
	if !ok {
		panic(fmt.Sprintf("exp: result %.12s… not computed", h))
	}
	return res
}

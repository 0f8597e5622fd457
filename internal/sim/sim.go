// Package sim assembles a complete system from a config — cores, L1s,
// the shared L2, the DRAM cache with its per-channel controllers, and
// main memory — performs functional warm-up, runs the timed region, and
// collects every statistic the experiments consume.
package sim

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strconv"

	"dcasim/internal/cache"
	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/cpu"
	"dcasim/internal/dcache"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/mainmem"
	"dcasim/internal/simtime"
	"dcasim/internal/tagcache"
	"dcasim/internal/trace"
	"dcasim/internal/workload"
)

// Result collects the outputs of one simulation run.
type Result struct {
	Benchmarks []string
	IPC        []float64
	FinishNS   []float64

	DCache dcache.Stats
	DRAM   dram.Stats
	Ctrl   core.Stats

	L2MissLatencyNS float64
	L2MissRate      float64
	L2Writebacks    int64
	LeeEager        int64

	TagCacheLookups int64
	TagCacheHits    int64
	DRAMTagAccesses int64

	MainMemReads  int64
	MainMemWrites int64
}

// runSources carries the resolved per-core operation streams of a run:
// live synthetic generators, trace-replay decoders, and the optional
// recording tee around either.
type runSources struct {
	names      []string // benchmark name per core, for Result.Benchmarks
	srcs       []workload.Source
	reader     *trace.Reader
	writer     *trace.Writer
	outBuf     *bufio.Writer
	recordPath string
	files      []*os.File
}

// openSources resolves cfg into per-core sources. On replay it rewrites
// the run budgets from the trace header so the simulation consumes
// exactly the recorded stream; on record it tees every source into a
// trace writer.
func openSources(cfg *config.Config) (*runSources, error) {
	rs := &runSources{}
	if path := cfg.ReplayPath(); path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("sim: open trace: %w", err)
		}
		rs.files = append(rs.files, f)
		r, err := trace.NewReader(bufio.NewReaderSize(f, 1<<16))
		if err != nil {
			rs.closeFiles()
			return nil, err
		}
		rs.reader = r
		hdr := r.Header()
		rs.names = hdr.Benchmarks
		if hdr.InstrPerCore > 0 {
			cfg.InstrPerCore = hdr.InstrPerCore
			cfg.WarmMemops = hdr.WarmMemops
			cfg.Seed = hdr.Seed
			cfg.WSScale = hdr.WSScale
		}
		if cfg.InstrPerCore <= 0 {
			rs.closeFiles()
			return nil, fmt.Errorf("sim: trace %s carries no instruction budget and the config sets none", path)
		}
		rs.srcs = make([]workload.Source, len(rs.names))
		for i := range rs.srcs {
			rs.srcs[i] = r.Source(i)
		}
	} else {
		rs.names = append([]string(nil), cfg.Benchmarks...)
		rs.srcs = make([]workload.Source, len(rs.names))
		for i, bench := range rs.names {
			prof, err := workload.Lookup(bench)
			if err != nil {
				return nil, err
			}
			rs.srcs[i] = workload.NewGen(prof, cfg.Seed*1000003+uint64(i)*7919, int64(i)<<40, cfg.WSScale)
		}
	}
	if cfg.RecordPath != "" {
		f, err := os.Create(cfg.RecordPath)
		if err != nil {
			rs.closeFiles()
			return nil, fmt.Errorf("sim: create trace: %w", err)
		}
		rs.files = append(rs.files, f)
		rs.recordPath = cfg.RecordPath
		rs.outBuf = bufio.NewWriterSize(f, 1<<16)
		w, err := trace.NewWriter(rs.outBuf, trace.Header{
			Benchmarks:   rs.names,
			Seed:         cfg.Seed,
			WSScale:      cfg.WSScale,
			InstrPerCore: cfg.InstrPerCore,
			WarmMemops:   cfg.WarmMemops,
		})
		if err != nil {
			rs.abort()
			return nil, err
		}
		rs.writer = w
		for i := range rs.srcs {
			rs.srcs[i] = w.Tee(i, rs.srcs[i])
		}
	}
	return rs, nil
}

// abort closes the trace files after a failed run and removes a
// partially written recording — a truncated .dct would replay as a
// confusing stream-exhausted error much later.
func (rs *runSources) abort() {
	rs.closeFiles()
	if rs.recordPath != "" {
		os.Remove(rs.recordPath)
	}
}

// finish flushes the recording, surfaces any replay decode error, and
// closes the trace files.
func (rs *runSources) finish() error {
	var first error
	if rs.writer != nil {
		first = rs.writer.Flush()
		if err := rs.outBuf.Flush(); first == nil && err != nil {
			first = fmt.Errorf("sim: flush trace: %w", err)
		}
	}
	if rs.reader != nil && first == nil {
		if err := rs.reader.Err(); err != nil {
			first = fmt.Errorf("sim: replay: %w", err)
		}
	}
	if err := rs.closeFiles(); first == nil {
		first = err
	}
	return first
}

func (rs *runSources) closeFiles() error {
	var first error
	for _, f := range rs.files {
		if err := f.Close(); first == nil && err != nil {
			first = err
		}
	}
	rs.files = nil
	return first
}

// testEngineHook, when set, observes the event engine of every Run
// before any event is scheduled. It is a test-only seam (the
// event-delta characterization test instruments Schedule through it)
// and must stay nil outside tests.
var testEngineHook func(*event.Engine)

// Run executes one simulation — a functional warm-up of cfg's own
// organization, then the timed region — and returns its results.
func Run(cfg config.Config) (Result, error) {
	w, err := Warm(cfg, []dcache.Org{cfg.Org}, nil)
	if err != nil {
		return Result{}, err
	}
	return w.run(cfg, false) // Warm checked cfg
}

// WarmKey identifies the state Warm(cfg, orgs) produces. Configs with
// equal keys warm to identical L1 and L2 arrays, generator positions
// and, organization by organization, tag stores and MAP-I tables, so one
// warm-up can serve them all. The key is built from exactly the Config
// fields the warm-up reads, except Org: one warm-up fills the contents
// of every organization it is given, and Warmed.Run picks cfg.Org's. ok
// is false for trace replay and recording, whose streams cannot be
// shared.
func WarmKey(cfg config.Config) (key string, ok bool) {
	if cfg.ReplayPath() != "" || cfg.RecordPath != "" {
		return "", false
	}
	var buf [256]byte // keys are built per config, so spare the allocations
	b := buf[:0]
	for _, name := range cfg.Benchmarks {
		b = strconv.AppendQuote(b, name)
	}
	b = strconv.AppendUint(append(b, " seed="...), cfg.Seed, 10)
	b = strconv.AppendFloat(append(b, " ws="...), cfg.WSScale, 'g', -1, 64)
	b = strconv.AppendBool(append(b, " mapi="...), cfg.UseMAPI)
	// WarmMemops, cache size, DRAM geometry, L1 and L2 shapes.
	for _, v := range [...]int64{
		cfg.WarmMemops, cfg.CacheSizeBytes,
		int64(cfg.Channels), int64(cfg.Ranks), int64(cfg.Banks), int64(cfg.RowBytes),
		cfg.L1Bytes, int64(cfg.L1Ways), cfg.L2Bytes, int64(cfg.L2Ways),
	} {
		b = strconv.AppendInt(append(b, ' '), v, 10)
	}
	return string(b), true
}

// Warmed is a system after functional warm-up: each core's operation
// source and L1, the shared L2 array, and, per organization warmed, the
// DRAM cache's tags and MAP-I predictor. Run builds the timing side —
// event engine, controllers, channels, main memory, tag cache — over it.
type Warmed struct {
	cfg  config.Config // the warming config, trace header budgets applied
	srcs *runSources
	l1s  []*cache.Cache
	l2   *cache.Cache
	dcs  []*dcache.Contents // one per organization warmed
	// A kept run works on copies of the L1 and L2 arrays made in these,
	// so successive kept runs reuse one set of copies.
	runL1s []*cache.Cache
	runL2  *cache.Cache
	spent  bool
}

// Warm builds cfg's functional state, with DRAM-cache contents for each
// organization in orgs, and runs the functional warm-up. spare, when
// non-nil, must be Spent and used by no run: the new state reuses its
// L1, L2 and tag-store memory, each organization's contents those of the
// same organization, so a run of warm-ups allocates one state.
func Warm(cfg config.Config, orgs []dcache.Org, spare *Warmed) (*Warmed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(orgs) == 0 {
		return nil, errors.New("sim: no organization to warm")
	}
	var old Warmed
	if spare != nil {
		if !spare.spent {
			return nil, errors.New("sim: cannot reuse a warm state that is not spent")
		}
		old, *spare = *spare, Warmed{spent: true}
	}
	srcs, err := openSources(&cfg)
	if err != nil {
		return nil, err
	}
	warmed := false
	defer func() {
		if !warmed {
			srcs.abort()
		}
	}()
	w := &Warmed{cfg: cfg, srcs: srcs, runL2: old.runL2}
	for _, org := range orgs {
		if w.contents(org) != nil {
			continue
		}
		dc, err := dcache.NewContents(dcache.Config{
			Org:       org,
			SizeBytes: cfg.CacheSizeBytes,
			DRAM:      cfg.DRAMGeometry(),
			UseMAPI:   cfg.UseMAPI,
			Cores:     len(srcs.srcs),
		}, old.contents(org))
		if err != nil {
			return nil, err
		}
		w.dcs = append(w.dcs, dc)
	}
	if w.l2, err = cache.New(cfg.L2Bytes, dcache.BlockBytes, cfg.L2Ways, old.l2); err != nil {
		return nil, err
	}
	// Each core's L1 and run copy start from the spare's, where it has
	// one for that core.
	w.l1s = make([]*cache.Cache, len(srcs.srcs))
	w.runL1s = make([]*cache.Cache, len(srcs.srcs))
	copy(w.l1s, old.l1s)
	copy(w.runL1s, old.runL1s)
	// The cores only warm here (Run builds the timed ones), so one slice
	// holds them instead of a pointer each.
	cores := make([]cpu.Core, len(srcs.srcs))
	for i, src := range srcs.srcs {
		if w.l1s[i], err = cache.New(cfg.L1Bytes, dcache.BlockBytes, cfg.L1Ways, w.l1s[i]); err != nil {
			return nil, err
		}
		cores[i] = *cpu.NewCore(nil, i, cfg.CPU, src, w.l1s[i], nil)
	}

	// Interleave the cores in rounds so shared L2 and DRAM-cache state see
	// the multiprogrammed interleaving, apply the DRAM-cache calls still
	// deferred, then clear the L2 array's counters (Core.Warm clears each
	// L1's).
	const warmRound = 1024
	batch := dcache.NewWarmBatch(w.dcs)
	for done := int64(0); done < cfg.WarmMemops; done += warmRound {
		n := warmRound
		if cfg.WarmMemops-done < int64(n) {
			n = int(cfg.WarmMemops - done)
		}
		for i := range cores {
			cores[i].Warm(int64(n), w.l2, batch)
		}
	}
	batch.Flush()
	w.l2.ResetStats()
	warmed = true
	return w, nil
}

// contents returns w's DRAM-cache contents for org, or nil.
func (w *Warmed) contents(org dcache.Org) *dcache.Contents {
	for _, dc := range w.dcs {
		if dc.Org() == org {
			return dc
		}
	}
	return nil
}

// Spent reports whether w can no longer serve a run: Run without keep
// consumed it, a run failed, or a kept run's tag-store journal outgrew
// the store and could not be rolled back.
func (w *Warmed) Spent() bool { return w.spent }

// Run runs cfg's timed region over w. cfg must have w's WarmKey, and w
// must hold contents for cfg.Org; a trace replay or recording config
// must be the one w was warmed with.
//
// With keep, the run works on copies of the L1 and L2 arrays, the MAP-I
// table and the generators, and journals its writes to cfg.Org's tag
// store, which it rolls back afterwards, so another config with the same
// key can run over w next. Spent reports whether that worked. Without
// keep, the run uses w itself and consumes it. Either way the contents
// of other organizations are left as they were.
func (w *Warmed) Run(cfg config.Config, keep bool) (Result, error) {
	// Warm validated the warming config only; a config running over
	// shared state fails here exactly as it would on its own.
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	key, shareable := WarmKey(cfg)
	warmKey, _ := WarmKey(w.cfg)
	switch {
	case w.spent:
		return Result{}, errors.New("sim: warm state already consumed")
	case key != warmKey:
		return Result{}, errors.New("sim: config does not match the warm state")
	case w.contents(cfg.Org) == nil:
		return Result{}, fmt.Errorf("sim: the warm state holds no %v contents", cfg.Org)
	case keep && !shareable:
		return Result{}, errors.New("sim: trace replay and recording cannot share warm state")
	}
	return w.run(cfg, keep)
}

// run is Run for a config already checked against w.
func (w *Warmed) run(cfg config.Config, keep bool) (Result, error) {
	if w.srcs.reader != nil {
		cfg.InstrPerCore = w.cfg.InstrPerCore
	}
	// A failed run leaves the state half-way through, so w stays spent
	// unless a kept run rolls back cleanly.
	w.spent = true
	dc := w.contents(cfg.Org)
	srcs, l1s, l2 := w.srcs.srcs, w.l1s, w.l2
	if keep {
		srcs = make([]workload.Source, len(w.srcs.srcs))
		for i := range srcs {
			srcs[i] = w.srcs.srcs[i].(*workload.Gen).Clone() // shareable: no tee, no replay
			w.runL1s[i] = w.l1s[i].CopyTo(w.runL1s[i])
		}
		w.runL2 = w.l2.CopyTo(w.runL2)
		l1s, l2 = w.runL1s, w.runL2
		dc.Checkpoint()
	}
	res, err := w.timed(cfg, dc, srcs, l1s, l2)
	if err == nil && keep {
		w.spent = !dc.Rollback()
	}
	return res, err
}

// timed builds the timing side of cfg over the warmed state and runs
// until every core retires its budget.
func (w *Warmed) timed(cfg config.Config, contents *dcache.Contents, srcs []workload.Source, l1s []*cache.Cache, l2arr *cache.Cache) (Result, error) {
	finished := false
	defer func() {
		if !finished {
			w.srcs.abort()
		}
	}()
	eng := &event.Engine{}
	if testEngineHook != nil {
		testEngineHook(eng)
	}
	mem := mainmem.New(eng, cfg.MainMem)

	dcCfg := dcache.Config{
		Org:       cfg.Org,
		SizeBytes: cfg.CacheSizeBytes,
		DRAM:      cfg.DRAMGeometry(),
		Timing:    cfg.Timing,
		XORRemap:  cfg.XORRemap,
		Ctrl:      cfg.CtrlConfig(),
		UseMAPI:   cfg.UseMAPI,
		BEARProbe: cfg.BEARProbe,
		Cores:     len(srcs),
		Contents:  contents,
	}
	if cfg.TagCacheKB > 0 {
		tc := tagcache.DefaultConfig(cfg.TagCacheKB << 10)
		dcCfg.TagCache = &tc
	}
	dc, err := dcache.New(eng, dcCfg, mem)
	if err != nil {
		return Result{}, err
	}
	l2 := cpu.NewL2(eng, l2arr, dc, cfg.L2HitLat, cfg.LeeWriteback)
	cores := make([]*cpu.Core, len(srcs))
	for i, src := range srcs {
		cores[i] = cpu.NewCore(eng, i, cfg.CPU, src, l1s[i], l2)
	}

	// Timed region: run until every core retires its budget.
	remaining := len(cores)
	for _, c := range cores {
		c.Run(cfg.InstrPerCore, func(*cpu.Core) { remaining-- })
	}
	for remaining > 0 {
		if !eng.Step() {
			return Result{}, fmt.Errorf("sim: deadlock with %d cores unfinished at %v", remaining, eng.Now())
		}
	}
	// Any error — including a replay decode error surfaced here — takes
	// the deferred abort path, which discards a partial recording.
	if err := w.srcs.finish(); err != nil {
		return Result{}, err
	}
	finished = true

	res := Result{
		Benchmarks:      append([]string(nil), w.srcs.names...),
		DCache:          dc.Stats(),
		DRAM:            dc.DRAMStats(),
		Ctrl:            dc.CtrlStats(),
		L2MissLatencyNS: l2.AvgMissLatency().NS(),
		L2Writebacks:    l2.Writebacks,
		LeeEager:        l2.LeeEager,
		MainMemReads:    mem.Reads,
		MainMemWrites:   mem.Writes,
	}
	if l2.Reads > 0 {
		res.L2MissRate = float64(l2.ReadMisses) / float64(l2.Reads)
	}
	res.DRAMTagAccesses = res.DRAM.TagAccesses
	if tc := dc.TagCache(); tc != nil {
		res.TagCacheLookups = tc.Lookups
		res.TagCacheHits = tc.Hits
	}
	for _, c := range cores {
		res.IPC = append(res.IPC, c.IPC())
		res.FinishNS = append(res.FinishNS, c.FinishTime().NS())
	}
	return res, nil
}

// AloneIPC runs a single benchmark alone on the given configuration and
// returns its IPC — the denominator of the weighted-speedup metric. The
// controller design used for alone runs is CD, the paper's normalization
// baseline.
func AloneIPC(cfg config.Config, bench string) (float64, error) {
	cfg.Benchmarks = []string{bench}
	cfg.Design = core.CD
	cfg.Ctrl = nil
	res, err := Run(cfg)
	if err != nil {
		return 0, err
	}
	return res.IPC[0], nil
}

// TotalNS returns the latest core finish time of a result.
func (r Result) TotalNS() float64 {
	max := 0.0
	for _, f := range r.FinishNS {
		if f > max {
			max = f
		}
	}
	return max
}

// ReadRowHitRate forwards the DRAM read row-buffer hit rate.
func (r Result) ReadRowHitRate() float64 { return r.DRAM.ReadRowHitRate() }

// AccessesPerTurnaround forwards the DRAM turnaround metric.
func (r Result) AccessesPerTurnaround() float64 { return r.DRAM.AccessesPerTurnaround() }

// AvgReadLatencyNS returns the mean DRAM-cache read latency in ns.
func (r Result) AvgReadLatencyNS() float64 {
	return simtime.Time(r.DCache.AvgReadLatency()).NS()
}

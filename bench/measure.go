package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"dcasim"
)

type options struct {
	seed     uint64
	seconds  float64 // measuring window
	trace    bool
	traceDir string // where a traced run writes its spans and profiles
	workDir  string // scratch space for result caches
	small    bool   // test scale everywhere and one set-up, for the smoke test
}

// A run sets up at least setupMin times and, while set-up has taken less
// than setupTime, up to setupMax times; setup_s is the median. Cheap
// set-ups thus get a steadier median at little cost.
const (
	setupMin  = 3
	setupMax  = 15
	setupTime = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output for one workload, the last line a run
// prints. Digest travels on its own line before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digest    string            `json:"-"`
}

// window is what one measuring loop saw.
type window struct {
	attempted, failed int
	durs              []float64 // reference seconds, successful passes only
	raw, probes       []float64 // host seconds of the same passes and of their probes
	allocBytes        uint64    // heap bytes allocated by every pass
	last              passOut   // last successful pass
}

// loop runs passes back to back until starting another would overrun
// budget, and at least one. A pass whose output disagrees with an
// earlier pass of the same run fails.
func loop(inst instance, tr *tracer, budget time.Duration, digest *string) window {
	var w window
	start := time.Now()
	var last time.Duration
	for w.attempted == 0 || time.Since(start)+last <= budget {
		runtime.GC() // every pass starts from the same heap state, outside its timing
		pr := probe()
		p0 := time.Now()
		if tr != nil {
			tr.pass++
		}
		var out passOut
		var err error
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pprof.Do(context.Background(), pprof.Labels("bench", "pass"), func(context.Context) {
			out, err = inst.pass(tr)
		})
		runtime.ReadMemStats(&m1)
		w.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		last = time.Since(p0)
		pr = (pr + probe()) / 2
		tr.span("pass", p0, last)
		w.attempted++
		if err == nil && *digest != "" && out.digest != *digest {
			err = fmt.Errorf("sim_digest %s differs from the run's first pass %s", out.digest, *digest)
		}
		if err != nil {
			w.failed++
			fmt.Fprintf(os.Stderr, "pass %d failed: %v\n", w.attempted, err)
			continue
		}
		*digest = out.digest
		w.durs = append(w.durs, refSeconds(out.dur, pr))
		w.raw = append(w.raw, out.dur.Seconds())
		w.probes = append(w.probes, pr.Seconds())
		w.last = out
	}
	return w
}

// measure sets a workload up, measures it, and returns its metrics: the
// end-to-end ones untraced, the per-layer ones traced. A traced run
// spends the first half of its window untraced, to give the tracing
// overhead, and profiles the set-up and the second half.
func measure(wl workload, o options) (result, error) {
	inst := wl.new(o)
	defer inst.close()
	var tr *tracer
	var setupProf, passProf bytes.Buffer
	if o.trace {
		tr = newTracer()
		if err := pprof.StartCPUProfile(&setupProf); err != nil {
			return result{}, err
		}
	}
	minReps, maxReps := setupMin, setupMax
	if o.small {
		minReps, maxReps = 1, 1
	}
	var setups []float64
	var setupErr error
	setupStart := time.Now()
	for i := 0; setupErr == nil && i < maxReps && (i < minReps || time.Since(setupStart) < setupTime); i++ {
		runtime.GC()
		pr := probe()
		start := time.Now()
		pprof.Do(context.Background(), pprof.Labels("bench", "setup"), func(context.Context) {
			setupErr = inst.setup(tr)
		})
		d := time.Since(start)
		pr = (pr + probe()) / 2
		tr.span("setup", start, d)
		setups = append(setups, refSeconds(d, pr))
	}
	if o.trace {
		pprof.StopCPUProfile()
	}
	if setupErr != nil {
		return result{}, fmt.Errorf("set-up: %w", setupErr)
	}

	// The passes of the window's first tenth warm the process up (heap
	// growth, memory the runtime returns to the OS after set-up) and are
	// checked but not timed.
	budget := time.Duration(o.seconds * float64(time.Second))
	var digest string
	warm := loop(inst, nil, budget/10, &digest)
	budget -= budget / 10
	if !o.trace {
		w := loop(inst, nil, budget, &digest)
		res, err := newResult(digest, warm, w)
		if err != nil {
			return res, err
		}
		res.Metrics = map[string]metric{
			"setup_s":           {quantile(setups, 0.5), "s"},
			"pass_s_p50":        {quantile(w.durs, 0.5), "s"},
			"pass_s_p90":        {quantile(w.durs, 0.9), "s"},
			"alloc_mb_per_pass": {float64(w.allocBytes) / 1e6 / float64(w.attempted), "MB"},
			"max_rss_mb":        {maxRSSMB(), "MB"},
		}
		return res, nil
	}

	plain := loop(inst, nil, budget/2, &digest)
	if err := pprof.StartCPUProfile(&passProf); err != nil {
		return result{}, err
	}
	traced := loop(inst, tr, budget/2, &digest)
	pprof.StopCPUProfile()
	res, err := newResult(digest, warm, plain, traced)
	if err != nil {
		return res, err
	}
	if err := writeTrace(o, wl.name, tr, setupProf.Bytes(), passProf.Bytes()); err != nil {
		return res, err
	}
	sp, err := parseProfile(setupProf.Bytes())
	if err != nil {
		return res, err
	}
	pp, err := parseProfile(passProf.Bytes())
	if err != nil {
		return res, err
	}
	res.Metrics = layerMetrics(layerInput{
		plainP50:  quantile(plain.durs, 0.5),
		tracedP50: quantile(traced.durs, 0.5),
		rawP50:    quantile(plain.raw, 0.5),
		probeP50:  quantile(plain.probes, 0.5),
		last:      traced.last,
		tr:        tr,
		setup:     sp.labelled("bench", "setup"),
		pass:      pp.labelled("bench", "pass"),
	})
	return res, nil
}

// newResult totals the windows of a run. The measuring windows (all but
// the warm-up) must each hold a successful pass to give a time.
func newResult(digest string, warm window, measured ...window) (result, error) {
	res := result{Attempted: warm.attempted, Failed: warm.failed, Digest: digest}
	for _, w := range measured {
		if len(w.durs) == 0 {
			return result{}, fmt.Errorf("all %d passes of a measuring window failed", w.attempted)
		}
		res.Attempted += w.attempted
		res.Failed += w.failed
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// maxRSSMB is the peak resident set of this process: the workload's own,
// since every workload runs in a process of its own.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid "who"
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports KiB
}

func writeTrace(o options, name string, tr *tracer, setupProf, passProf []byte) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", name, o.seed))
	if err := os.WriteFile(base+"-setup.pprof", setupProf, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+"-pass.pprof", passProf, 0o644); err != nil {
		return err
	}
	return tr.write(base + ".trace.json")
}

// quantile is the linearly interpolated p-quantile of xs (p in [0,1]);
// p = 0.5 is the median.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads read the same as the tooling that judges the benchmark.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return quantile(s, 0.5), quantile(s, 0.5)
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// phases are the on-stack phase shares: the fraction of profile samples
// with one of the functions on the stack.
var phases = []struct {
	name  string
	funcs []string
}{
	{"warm", []string{"dcasim/internal/cpu.(*Core).Warm"}},
	{"timed", []string{"dcasim/internal/event.(*Engine).Step"}},
	{"assemble", []string{"dcasim/internal/dcache.New", "dcasim/internal/cache.New", "dcasim/internal/cpu.NewCore", "dcasim/internal/cpu.NewL2", "dcasim/internal/mainmem.New"}},
	{"cache_get", []string{"dcasim/internal/rescache.(*Cache).Get"}},
	{"cache_put", []string{"dcasim/internal/rescache.(*Cache).Put", "dcasim/internal/rescache.(*Cache).TryClaim", "dcasim/internal/rescache.(*Cache).WaitForClaim", "dcasim/internal/rescache.(*Cache).ClaimHeld", "dcasim/internal/rescache.(*Cache).heartbeat"}},
	{"hash", []string{"dcasim/internal/config.Config.Hash"}},
}

type layerInput struct {
	plainP50, tracedP50 float64 // reference seconds
	rawP50, probeP50    float64 // host seconds of the untraced passes and their probes
	last                passOut // last traced pass
	tr                  *tracer
	setup, pass         *profile // samples inside set-up and pass bodies
}

// layerMetrics derives every per-layer metric. Model counters come from
// the last pass's Result and read 0 on workloads that run no single
// simulation of their own.
func layerMetrics(in layerInput) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("span.run_s", "s", quantile(in.tr.passRuns, 0.5))
	put("span.setup_run_s", "s", quantile(in.tr.setupRuns, 0.5))
	put("trace.overhead_frac", "frac", in.tracedP50/in.plainP50-1)
	put("raw_pass_s_p50", "s", in.rawP50)
	put("probe_s", "s", in.probeP50)
	put("sim_minstr_per_s", "Minstr/s", in.last.instr/1e6/in.plainP50)
	put("exp.sim_runs", "count", float64(in.last.simRuns))
	put("rescache.hit_frac", "frac", ratio(float64(in.last.cacheHits), float64(in.last.cacheHits+in.last.simRuns)))
	for _, ph := range phases {
		put("phase."+ph.name+".share", "frac", in.pass.onStackShare(ph.funcs))
		put("setup.phase."+ph.name+".share", "frac", in.setup.onStackShare(ph.funcs))
	}
	for mod, share := range in.pass.flatShares() {
		put("host."+mod+".share", "frac", share)
	}

	var r dcasim.Result
	if in.last.result != nil {
		r = *in.last.result
	}
	dc, ctl, dr := r.DCache, r.Ctrl, r.DRAM
	ipcSum := 0.0
	for _, v := range r.IPC {
		ipcSum += v
	}
	put("cache.l2.miss_rate", "frac", r.L2MissRate)
	put("cache.l2.writebacks", "count", float64(r.L2Writebacks))
	put("cache.l2.lee_eager", "count", float64(r.LeeEager))
	put("dcache.reads", "count", float64(dc.ReadReqs))
	put("dcache.read_hit_rate", "frac", dc.ReadHitRate())
	put("dcache.writebacks", "count", float64(dc.WritebackReqs))
	put("dcache.refills", "count", float64(dc.RefillReqs))
	put("dcache.victims", "count", float64(dc.VictimWrites))
	put("dcache.mapi_wasted_frac", "frac", ratio(float64(dc.WastedFetches), float64(dc.ReadMisses)))
	put("dcache.read_latency_ns", "sim_ns", dc.AvgReadLatency().NS())
	put("core.pr_issued", "count", float64(ctl.PRIssued))
	put("core.lr_issued", "count", float64(ctl.LRIssued))
	put("core.ofs_issues", "count", float64(ctl.OFSIssues))
	put("core.writes_issued", "count", float64(ctl.WritesIssued))
	put("core.forced_flushes", "count", float64(ctl.ForcedFlushes))
	put("core.schedule_all_on", "count", float64(ctl.ScheduleAllOn))
	put("core.idle_slots", "count", float64(ctl.IdleSlots))
	// Under CD and DCA, the two designs the timed workloads use, every
	// read (PR or LR) goes through the read queue and every write through
	// the write queue.
	put("core.read_wait_ns", "sim_ns", ratio(ctl.ReadQueueWait.NS(), float64(ctl.PRIssued+ctl.LRIssued)))
	put("core.write_wait_ns", "sim_ns", ratio(ctl.WriteQueueWait.NS(), float64(ctl.WritesIssued)))
	put("dram.accesses", "count", float64(dr.Accesses))
	put("dram.tag_accesses", "count", float64(dr.TagAccesses))
	put("dram.read_row_hit_rate", "frac", r.ReadRowHitRate())
	put("dram.accesses_per_turnaround", "acc/turn", r.AccessesPerTurnaround())
	put("dram.accesses_per_host_s", "1/s", float64(dr.Accesses)/in.plainP50)
	put("mainmem.reads", "count", float64(r.MainMemReads))
	put("mainmem.writes", "count", float64(r.MainMemWrites))
	put("cpu.ipc_sum", "instr/cycle", ipcSum)
	put("cpu.l2_miss_latency_ns", "sim_ns", r.L2MissLatencyNS)
	return m
}

package sim

import (
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
)

// TestAccountingInvariants checks cross-module consistency of the
// statistics a run reports.
func TestAccountingInvariants(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"soplex", "mcf", "gcc", "libquantum"}
	for _, org := range []dcache.Org{dcache.SetAssoc, dcache.DirectMapped} {
		cfg.Org = org
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAccounting(t, cfg, res)
	}
}

// checkAccounting fails t unless the counters of res, a run of cfg,
// agree with each other across modules.
func checkAccounting(t testing.TB, cfg config.Config, res Result) {
	t.Helper()
	org := cfg.Org
	s := res.DCache
	// The run stops when every core retires its budget, so a few
	// requests (bounded by the cores' MSHRs) are still in flight;
	// all counts must agree up to that slack.
	slack := int64(len(cfg.Benchmarks) * cfg.CPU.MSHRs)
	near := func(a, b int64) bool { return a-b <= slack && b-a <= slack }

	if !near(s.ReadHits+s.ReadMisses, s.ReadReqs) {
		t.Errorf("%v: hits %d + misses %d != reads %d", org, s.ReadHits, s.ReadMisses, s.ReadReqs)
	}
	if !near(s.ReadsCompleted, s.ReadReqs) {
		t.Errorf("%v: %d of %d reads completed", org, s.ReadsCompleted, s.ReadReqs)
	}
	// Every read miss produces exactly one refill request.
	if !near(s.RefillReqs, s.ReadMisses) {
		t.Errorf("%v: refills %d != read misses %d", org, s.RefillReqs, s.ReadMisses)
	}
	// Every read miss fetches exactly one block from main memory
	// (plus MAP-I false-miss speculative fetches).
	if res.MainMemReads < s.ReadMisses {
		t.Errorf("%v: main memory reads %d < read misses %d", org, res.MainMemReads, s.ReadMisses)
	}
	if res.MainMemReads > s.ReadMisses+s.WastedFetches+slack {
		t.Errorf("%v: main memory reads %d > misses %d + wasted %d",
			org, res.MainMemReads, s.ReadMisses, s.WastedFetches)
	}
	// DRAM accesses split consistently.
	d := res.DRAM
	if d.Reads+d.Writes != d.Accesses {
		t.Errorf("%v: reads %d + writes %d != accesses %d", org, d.Reads, d.Writes, d.Accesses)
	}
	if d.ReadRowHit+d.ReadRowMiss+d.ReadRowConf != d.Reads {
		t.Errorf("%v: read row outcomes do not sum: %+v", org, d)
	}
	if d.WriteRowHit+d.WriteRowMiss+d.WriteRowConf != d.Writes {
		t.Errorf("%v: write row outcomes do not sum: %+v", org, d)
	}
	// The controller issued exactly the DRAM accesses.
	c := res.Ctrl
	if c.PRIssued+c.LRIssued != d.Reads {
		t.Errorf("%v: PR %d + LR %d != DRAM reads %d", org, c.PRIssued, c.LRIssued, d.Reads)
	}
	if c.WritesIssued != d.Writes {
		t.Errorf("%v: controller writes %d != DRAM writes %d", org, c.WritesIssued, d.Writes)
	}
}

// TestNonDCADesignsNeverUseOFS: the OFS path is DCA-only.
func TestNonDCADesignsNeverUseOFS(t *testing.T) {
	for _, d := range []core.Design{core.CD, core.ROD} {
		cfg := config.Test()
		cfg.Benchmarks = []string{"lbm", "mcf", "leslie3d", "omnetpp"}
		cfg.Design = d
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ctrl.OFSIssues != 0 || res.Ctrl.ScheduleAllOn != 0 {
			t.Errorf("%v: OFS=%d ScheduleAll=%d, want 0/0", d, res.Ctrl.OFSIssues, res.Ctrl.ScheduleAllOn)
		}
		if d == core.CD && res.Ctrl.LRIssued != 0 {
			// CD never classifies LRs (all reads are plain reads).
			continue
		}
	}
}

// TestDCAClassifiesLRs: under DCA, writeback/refill probes are LRs.
func TestDCAClassifiesLRs(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"lbm", "mcf", "leslie3d", "omnetpp"}
	cfg.Design = core.DCA
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ctrl.LRIssued == 0 {
		t.Fatal("DCA issued no LRs despite writeback/refill traffic")
	}
	if res.Ctrl.PRIssued == 0 {
		t.Fatal("DCA issued no PRs")
	}
}

// TestRemapPreservesWork: remapping changes locations, not the amount of
// work — request counts must match between remapped and plain runs.
func TestRemapPreservesWork(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"soplex", "mcf", "gcc", "libquantum"}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.XORRemap = true
	remap, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Timing shifts change L2 MSHR merge opportunities slightly, so the
	// counts match within a small tolerance rather than exactly.
	within := func(a, b int64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d*200 <= a+b // 1 % of the mean
	}
	if !within(plain.DCache.ReadReqs, remap.DCache.ReadReqs) {
		t.Errorf("read requests differ: %d vs %d", plain.DCache.ReadReqs, remap.DCache.ReadReqs)
	}
	if !within(plain.DCache.ReadHits, remap.DCache.ReadHits) {
		t.Errorf("hit behaviour changed under remap: %d vs %d (mapping must not affect set indexing)",
			plain.DCache.ReadHits, remap.DCache.ReadHits)
	}
}

// TestTagCacheReducesOrMultipliesTagTraffic: with a tiny tag cache the
// DRAM tag traffic typically grows (the paper's Fig. 18 observation).
func TestTagCacheChangesTagTraffic(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "omnetpp", "astar", "milc"}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TagCacheKB = 64
	with, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if with.TagCacheLookups == 0 {
		t.Fatal("tag cache saw no lookups")
	}
	if base.DRAMTagAccesses == 0 {
		t.Fatal("baseline recorded no tag accesses")
	}
	ratio := float64(with.DRAMTagAccesses) / float64(base.DRAMTagAccesses)
	if ratio < 0.2 || ratio > 6 {
		t.Fatalf("tag traffic ratio %.2f implausible", ratio)
	}
}

// TestLeePolicyProducesEagerWritebacks at system level.
func TestLeePolicyProducesEagerWritebacks(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"lbm", "lbm", "lbm", "lbm"}
	cfg.LeeWriteback = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeeEager == 0 {
		t.Fatal("Lee policy produced no eager row-mate writebacks on a streaming store-heavy mix")
	}
}

// TestSeedChangesOutcome: different seeds must give different (but
// still valid) executions.
func TestSeedChangesOutcome(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"soplex", "mcf", "gcc", "libquantum"}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 12345
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.IPC {
		if a.IPC[i] == b.IPC[i] {
			same++
		}
	}
	if same == len(a.IPC) {
		t.Fatal("different seeds produced identical IPCs for every core")
	}
}

// TestAloneFasterThanShared: a benchmark running alone must not be
// slower than the same benchmark sharing the machine with three others.
func TestAloneFasterThanShared(t *testing.T) {
	cfg := config.Test()
	alone, err := AloneIPC(cfg, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Benchmarks = []string{"mcf", "lbm", "bwaves", "milc"}
	cfg.Design = core.CD
	shared, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared.IPC[0] > alone*1.05 {
		t.Fatalf("mcf shared IPC %.4f exceeds alone IPC %.4f", shared.IPC[0], alone)
	}
}

package cpu

import (
	"testing"

	"dcasim/internal/cache"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/mainmem"
	"dcasim/internal/simtime"
	"dcasim/internal/workload"

	"dcasim/internal/addrmap"
)

type rig struct {
	eng  *event.Engine
	dc   *dcache.DCache
	l2   *L2
	core *Core
	mem  *mainmem.Memory
}

func newRig(t *testing.T, bench string, memLatency simtime.Time, lee bool) *rig {
	t.Helper()
	eng := &event.Engine{}
	memCfg := mainmem.DefaultConfig()
	if memLatency > 0 {
		memCfg.Latency = memLatency
	}
	mem := mainmem.New(eng, memCfg)
	dc, err := dcache.New(eng, dcache.Config{
		Org:       dcache.SetAssoc,
		SizeBytes: 1 << 20,
		DRAM:      addrmap.Geometry{Channels: 4, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64},
		Timing:    dram.StackedDRAM(),
		Ctrl:      core.DefaultConfig(core.CD),
		Cores:     1,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	l2arr, err := cache.New(256<<10, 64, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2 := NewL2(eng, l2arr, dc, 5*simtime.Nanosecond, lee)
	prof, err := workload.Lookup(bench)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGen(prof, 11, 0, 0.02)
	l1, err := cache.New(32<<10, 64, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(eng, 0, DefaultParams(), gen, l1, l2)
	return &rig{eng: eng, dc: dc, l2: l2, core: c, mem: mem}
}

func run(t *testing.T, r *rig, instrs int64) {
	t.Helper()
	done := false
	r.core.Run(instrs, func(*Core) { done = true })
	for !done {
		if !r.eng.Step() {
			t.Fatalf("deadlock: core stuck at %v after %d instructions", r.eng.Now(), r.core.Executed())
		}
	}
}

func TestCoreFinishes(t *testing.T) {
	r := newRig(t, "mcf", 0, false)
	run(t, r, 20_000)
	if !r.core.Finished() {
		t.Fatal("core did not finish")
	}
	ipc := r.core.IPC()
	if ipc <= 0 || ipc > float64(DefaultParams().Width) {
		t.Fatalf("implausible IPC %v", ipc)
	}
}

func TestMemoryBoundCoreIsSlower(t *testing.T) {
	// The ROB window must make the core latency-sensitive: the same
	// trace with 10x main-memory latency must take meaningfully longer.
	fast := newRig(t, "mcf", 50*simtime.Nanosecond, false)
	run(t, fast, 20_000)
	slow := newRig(t, "mcf", 500*simtime.Nanosecond, false)
	run(t, slow, 20_000)
	if slow.core.FinishTime() < fast.core.FinishTime()*2 {
		t.Fatalf("10x memory latency only moved finish from %v to %v — window model broken",
			fast.core.FinishTime(), slow.core.FinishTime())
	}
}

func TestROBWindowBoundsOverlap(t *testing.T) {
	// At most MSHRs loads may be outstanding; the window blocks dispatch
	// beyond ROB instructions past the oldest incomplete load. Indirect
	// check: stall time is accounted and positive for a miss-heavy run.
	r := newRig(t, "mcf", 0, false)
	run(t, r, 20_000)
	if r.core.StallTime == 0 {
		t.Fatal("miss-heavy workload recorded zero stall time")
	}
	if r.core.Loads == 0 || r.core.L1Misses == 0 {
		t.Fatalf("trace produced no memory traffic: loads=%d l1miss=%d", r.core.Loads, r.core.L1Misses)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	// lbm is store-heavy; stores must drain through the write path
	// without stalling retirement. Its stall time should come only from
	// loads, so a store-heavy benchmark must not be dramatically slower
	// than dispatch for the same load count.
	r := newRig(t, "lbm", 0, false)
	run(t, r, 200_000)
	if r.core.Stores == 0 {
		t.Fatal("lbm produced no stores")
	}
	if r.l2.Writebacks == 0 {
		t.Fatal("store-heavy run produced no L2 writebacks to the DRAM cache")
	}
}

func TestWarmDoesNotAdvanceTime(t *testing.T) {
	r := newRig(t, "gcc", 0, false)
	b := dcache.NewWarmBatch([]*dcache.Contents{r.dc.Contents})
	r.core.Warm(10_000, r.l2.arr, b)
	b.Flush()
	if r.eng.Now() != 0 {
		t.Fatalf("warm-up advanced simulated time to %v", r.eng.Now())
	}
	if r.eng.Pending() != 0 {
		t.Fatalf("warm-up left %d pending events", r.eng.Pending())
	}
}

func TestL2MSHRMerging(t *testing.T) {
	eng := &event.Engine{}
	mem := mainmem.New(eng, mainmem.DefaultConfig())
	dc, err := dcache.New(eng, dcache.Config{
		Org:       dcache.SetAssoc,
		SizeBytes: 1 << 20,
		DRAM:      addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64},
		Timing:    dram.StackedDRAM(),
		Ctrl:      core.DefaultConfig(core.CD),
		Cores:     1,
	}, mem)
	if err != nil {
		t.Fatal(err)
	}
	l2arr, _ := cache.New(64<<10, 64, 8, nil)
	l2 := NewL2(eng, l2arr, dc, 5*simtime.Nanosecond, false)

	completions := 0
	l2.Read(42, 0, 1, event.Func(func(simtime.Time) { completions++ }))
	l2.Read(42, 0, 1, event.Func(func(simtime.Time) { completions++ })) // merges
	eng.Run()
	if completions != 2 {
		t.Fatalf("%d completions, want 2", completions)
	}
	if dc.Stats().ReadReqs != 1 {
		t.Fatalf("MSHR did not merge: %d DRAM cache reads, want 1", dc.Stats().ReadReqs)
	}
	if l2.ReadMisses != 2 {
		t.Fatalf("read misses = %d, want 2", l2.ReadMisses)
	}
}

func TestL2HitLatency(t *testing.T) {
	eng := &event.Engine{}
	mem := mainmem.New(eng, mainmem.DefaultConfig())
	dc, _ := dcache.New(eng, dcache.Config{
		Org:       dcache.SetAssoc,
		SizeBytes: 1 << 20,
		DRAM:      addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64},
		Timing:    dram.StackedDRAM(),
		Ctrl:      core.DefaultConfig(core.CD),
		Cores:     1,
	}, mem)
	l2arr, _ := cache.New(64<<10, 64, 8, nil)
	l2 := NewL2(eng, l2arr, dc, 5*simtime.Nanosecond, false)
	l2.Write(42, 0) // install
	var done simtime.Time
	l2.Read(42, 0, 1, event.Func(func(now simtime.Time) { done = now }))
	eng.Run()
	if done != 5*simtime.Nanosecond {
		t.Fatalf("L2 hit completed at %v, want 5ns", done)
	}
}

func TestLeeEagerWriteback(t *testing.T) {
	eng := &event.Engine{}
	mem := mainmem.New(eng, mainmem.DefaultConfig())
	dc, _ := dcache.New(eng, dcache.Config{
		Org:       dcache.SetAssoc,
		SizeBytes: 1 << 20,
		DRAM:      addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64},
		Timing:    dram.StackedDRAM(),
		Ctrl:      core.DefaultConfig(core.CD),
		Cores:     1,
	}, mem)
	l2arr, _ := cache.New(64<<10, 64, 8, nil) // 128 sets
	l2 := NewL2(eng, l2arr, dc, 5*simtime.Nanosecond, true)

	// Dirty DRAM-cache-row-mates of block 0 (blocks 0..3 share a row in
	// the SA layout) living in different L2 sets.
	l2.Write(0, 0)
	l2.Write(1, 0)
	l2.Write(2, 0)
	// Evict block 0 from L2 by filling its set (set = addr % 128).
	for i := 1; i <= 8; i++ {
		l2.Write(int64(i*128), 0)
	}
	eng.RunUntil(eng.Now()) // flush nothing; writebacks are sync
	if l2.LeeEager < 2 {
		t.Fatalf("Lee policy drained %d row-mates, want >= 2 (blocks 1 and 2)", l2.LeeEager)
	}
	// Blocks 1 and 2 must now be clean in L2.
	if _, dirty := l2arr.Probe(1); dirty {
		t.Fatal("row-mate 1 still dirty after Lee drain")
	}
	if l2.Writebacks < 3 {
		t.Fatalf("writebacks = %d, want >= 3 (victim + 2 row-mates)", l2.Writebacks)
	}
}

func TestIPCZeroBeforeFinish(t *testing.T) {
	r := newRig(t, "gcc", 0, false)
	if r.core.IPC() != 0 {
		t.Fatal("IPC before finishing should be 0")
	}
}

// TestWarmAllocatesNothing: a steady-state warm-up round, its DRAM-cache
// calls going through a WarmBatch that flushes into contents of both
// organizations, allocates nothing.
func TestWarmAllocatesNothing(t *testing.T) {
	r := newRig(t, "mcf", 0, false)
	eng := &event.Engine{}
	cfg := dcache.Config{
		Org:       dcache.DirectMapped,
		SizeBytes: 1 << 20,
		DRAM:      addrmap.Geometry{Channels: 4, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64},
		Timing:    dram.StackedDRAM(),
		Ctrl:      core.DefaultConfig(core.CD),
		UseMAPI:   true,
		Cores:     1,
	}
	dm, err := dcache.New(eng, cfg, mainmem.New(eng, mainmem.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	b := dcache.NewWarmBatch([]*dcache.Contents{r.dc.Contents, dm.Contents})
	r.core.Warm(50_000, r.l2.arr, b)
	reads := dm.Predictor().Lookups
	if n := testing.AllocsPerRun(20, func() { r.core.Warm(1024, r.l2.arr, b) }); n != 0 {
		t.Fatalf("a warm-up round allocates %v times, want 0", n)
	}
	if dm.Predictor().Lookups == reads {
		t.Fatal("the measured rounds applied no DRAM-cache read")
	}
}

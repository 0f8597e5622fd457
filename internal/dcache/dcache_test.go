package dcache

import (
	"testing"

	"dcasim/internal/core"
	"dcasim/internal/event"
	"dcasim/internal/mainmem"
	"dcasim/internal/simtime"
	"dcasim/internal/tagcache"

	"dcasim/internal/dram"
)

func rig(t *testing.T, org Org, mutate func(*Config)) (*event.Engine, *DCache, *mainmem.Memory) {
	t.Helper()
	eng := &event.Engine{}
	mem := mainmem.New(eng, mainmem.DefaultConfig())
	ctrl := core.DefaultConfig(core.DCA)
	// Tiny write queue with a zero low threshold so writes drain as soon
	// as the channel idles — the access-mix assertions below count
	// issued DRAM accesses.
	ctrl.WriteQueueCap = 2
	ctrl.WriteFlushLow = 0.2
	cfg := Config{
		Org:       org,
		SizeBytes: 1 << 20,
		DRAM:      paperDRAM(),
		Timing:    dram.StackedDRAM(),
		Ctrl:      ctrl,
		Cores:     2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	dc, err := New(eng, cfg, mem)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dc, mem
}

func TestReadHitChainSetAssoc(t *testing.T) {
	eng, dc, mem := rig(t, SetAssoc, nil)
	dc.WarmRead(42, 0, 1) // install the block

	var doneAt simtime.Time
	dc.Read(42, 0, 1, event.Func(func(now simtime.Time) { doneAt = now }))
	eng.Run()

	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	s := dc.Stats()
	if s.ReadReqs != 1 || s.ReadHits != 1 || s.ReadMisses != 0 {
		t.Fatalf("request stats: %+v", s)
	}
	ds := dc.DRAMStats()
	// Fig. 2: RTr + RDr reads and a WTr write, two of them tag accesses.
	if ds.Reads != 2 || ds.Writes != 1 || ds.TagAccesses != 2 {
		t.Fatalf("access mix reads=%d writes=%d tags=%d, want 2/1/2", ds.Reads, ds.Writes, ds.TagAccesses)
	}
	if mem.Reads != 0 {
		t.Fatal("hit went to main memory")
	}
}

func TestReadMissRefillSetAssoc(t *testing.T) {
	eng, dc, mem := rig(t, SetAssoc, nil)
	var doneAt simtime.Time
	dc.Read(42, 0, 1, event.Func(func(now simtime.Time) { doneAt = now }))
	eng.Run()

	s := dc.Stats()
	if s.ReadMisses != 1 || s.RefillReqs != 1 {
		t.Fatalf("miss stats: %+v", s)
	}
	if mem.Reads != 1 {
		t.Fatalf("main memory reads = %d, want 1", mem.Reads)
	}
	// Miss penalty includes the 50 ns fetch.
	if doneAt < 50*simtime.Nanosecond {
		t.Fatalf("miss completed at %v, faster than main memory", doneAt)
	}
	// The refill installed the block: a second read hits.
	dc.Read(42, 0, 1, event.Callback{})
	eng.Run()
	if dc.Stats().ReadHits != 1 {
		t.Fatal("refill did not install the block")
	}
	// Refill translation (Fig. 2): RTw read + WD/WT writes beyond the
	// original RTr.
	ds := dc.DRAMStats()
	if ds.Writes < 2 {
		t.Fatalf("refill produced %d writes, want >= 2", ds.Writes)
	}
}

func TestReadDirectMappedSingleAccess(t *testing.T) {
	eng, dc, _ := rig(t, DirectMapped, nil)
	dc.WarmRead(42, 0, 1)
	dc.Read(42, 0, 1, event.Callback{})
	eng.Run()
	ds := dc.DRAMStats()
	// One combined TAD read; no separate data read, no tag write.
	if ds.Reads != 1 || ds.Writes != 0 {
		t.Fatalf("direct-mapped hit: reads=%d writes=%d, want 1/0", ds.Reads, ds.Writes)
	}
}

func TestWritebackHit(t *testing.T) {
	eng, dc, _ := rig(t, SetAssoc, nil)
	dc.WarmRead(42, 0, 1)
	dc.Writeback(42, 0)
	eng.Run()
	s := dc.Stats()
	if s.WritebackReqs != 1 || s.WritebackHits != 1 {
		t.Fatalf("writeback stats: %+v", s)
	}
	ds := dc.DRAMStats()
	// RTw + WDw + WTw.
	if ds.Reads != 1 || ds.Writes != 2 {
		t.Fatalf("writeback hit accesses: reads=%d writes=%d, want 1/2", ds.Reads, ds.Writes)
	}
}

func TestWritebackMissDirtyVictim(t *testing.T) {
	eng, dc, mem := rig(t, SetAssoc, nil)
	g := dc.Geometry()
	// Fill one set with dirty blocks so the allocation displaces one.
	set := g.SetOf(42)
	for w := 0; w < g.Ways; w++ {
		dc.WarmWrite(42+int64(w+1)*g.Sets, 0)
	}
	if set != g.SetOf(42+g.Sets) {
		t.Fatal("test setup: aliases must share a set")
	}
	dc.Writeback(42, 0)
	eng.Run()
	s := dc.Stats()
	if s.WritebackMiss != 1 || s.VictimWrites != 1 {
		t.Fatalf("writeback miss stats: %+v", s)
	}
	// Fig. 2 with dirty victim: RTw + RDw reads, WDw + WTw writes, and
	// one main-memory write for the victim.
	ds := dc.DRAMStats()
	if ds.Reads != 2 || ds.Writes != 2 {
		t.Fatalf("accesses reads=%d writes=%d, want 2/2", ds.Reads, ds.Writes)
	}
	if mem.Writes != 1 {
		t.Fatalf("main memory writes = %d, want 1", mem.Writes)
	}
}

func TestDirectMappedWritebackNoVictimRead(t *testing.T) {
	eng, dc, mem := rig(t, DirectMapped, nil)
	g := dc.Geometry()
	dc.WarmWrite(42+g.Sets, 0) // dirty occupant of the same set
	dc.Writeback(42, 0)
	eng.Run()
	ds := dc.DRAMStats()
	// The TAD probe already carried the victim's data: exactly one read
	// (the probe) and one TAD write; the victim still reaches memory.
	if ds.Reads != 1 || ds.Writes != 1 {
		t.Fatalf("accesses reads=%d writes=%d, want 1/1", ds.Reads, ds.Writes)
	}
	if mem.Writes != 1 {
		t.Fatalf("main memory writes = %d, want 1", mem.Writes)
	}
}

func TestMAPIOverlapsMissFetch(t *testing.T) {
	// With MAP-I trained to predict misses, the fetch overlaps the tag
	// probe, so the miss completes sooner than probe+fetch in series.
	missLatency := func(useMAPI bool) simtime.Time {
		eng, dc, _ := rig(t, SetAssoc, func(c *Config) { c.UseMAPI = useMAPI })
		if useMAPI {
			// Train the predictor: this PC misses.
			for i := 0; i < 8; i++ {
				dc.WarmRead(int64(1000+i)*dc.Geometry().Sets, 0, 99) // distinct sets... distinct addrs
			}
			// The warm reads install blocks; use fresh addresses below.
		}
		var done simtime.Time
		dc.Read(7, 0, 99, event.Func(func(now simtime.Time) { done = now }))
		eng.Run()
		return done
	}
	plain := missLatency(false)
	overlapped := missLatency(true)
	if overlapped >= plain {
		t.Fatalf("MAP-I did not hide the miss: %v vs %v", overlapped, plain)
	}
}

func TestTagCacheSkipsProbe(t *testing.T) {
	eng, dc, _ := rig(t, SetAssoc, func(c *Config) {
		tc := tagcache.DefaultConfig(64 << 10)
		c.TagCache = &tc
	})
	dc.WarmRead(42, 0, 1)
	dc.Read(42, 0, 1, event.Callback{}) // tag-cache miss: fetches tag block + siblings
	eng.Run()
	first := dc.DRAMStats().TagAccesses
	dc.Read(42, 0, 1, event.Callback{}) // tag-cache hit: no DRAM tag read, just WT
	eng.Run()
	second := dc.DRAMStats().TagAccesses - first
	// Second read: tag cache hit leaves only the replacement-update WT.
	if second != 1 {
		t.Fatalf("tag accesses on tag-cache hit = %d, want 1 (the WT)", second)
	}
	tc := dc.TagCache()
	if tc == nil || tc.Hits == 0 {
		t.Fatal("tag cache not engaged")
	}
}

func TestTagCacheRequiresSetAssoc(t *testing.T) {
	eng := &event.Engine{}
	mem := mainmem.New(eng, mainmem.DefaultConfig())
	tc := tagcache.DefaultConfig(64 << 10)
	_, err := New(eng, Config{
		Org:       DirectMapped,
		SizeBytes: 1 << 20,
		DRAM:      paperDRAM(),
		Timing:    dram.StackedDRAM(),
		Ctrl:      core.DefaultConfig(core.CD),
		Cores:     1,
		TagCache:  &tc,
	}, mem)
	if err == nil {
		t.Fatal("tag cache on direct-mapped organization accepted")
	}
}

func TestRowSpan(t *testing.T) {
	_, dc, _ := rig(t, SetAssoc, nil)
	lo, hi := dc.RowSpan(10)
	if hi-lo != saSetsPerRow || 10 < lo || 10 >= hi {
		t.Fatalf("RowSpan(10) = [%d,%d)", lo, hi)
	}
	_, dm, _ := rig(t, DirectMapped, nil)
	lo, hi = dm.RowSpan(100)
	if hi-lo != dmTADsPerRow || 100 < lo || 100 >= hi {
		t.Fatalf("direct-mapped RowSpan(100) = [%d,%d)", lo, hi)
	}
}

func TestResetStats(t *testing.T) {
	eng, dc, _ := rig(t, SetAssoc, nil)
	dc.Read(1, 0, 1, event.Callback{})
	eng.Run()
	dc.ResetStats()
	if dc.Stats().ReadReqs != 0 || dc.DRAMStats().Accesses != 0 {
		t.Fatal("ResetStats left counters")
	}
	// State survives: the earlier refill still hits.
	dc.Read(1, 0, 1, event.Callback{})
	eng.Run()
	if dc.Stats().ReadHits != 1 {
		t.Fatal("ResetStats dropped tag state")
	}
}

func TestWarmAccessors(t *testing.T) {
	_, dc, _ := rig(t, SetAssoc, nil)
	dc.WarmRead(5, 0, 1)
	dc.WarmWrite(6, 0)
	set, way := dc.tags.lookup(5)
	if way < 0 || dc.tags.dirty(set, way) {
		t.Fatal("WarmRead should install clean")
	}
	set, way = dc.tags.lookup(6)
	if way < 0 || !dc.tags.dirty(set, way) {
		t.Fatal("WarmWrite should install dirty")
	}
}

// TestNewRejectsForeignContents: a DRAM cache runs only over contents
// built for its own organization, size and predictor setting.
func TestNewRejectsForeignContents(t *testing.T) {
	cfg := Config{
		Org:       SetAssoc,
		SizeBytes: 1 << 20,
		DRAM:      paperDRAM(),
		Timing:    dram.StackedDRAM(),
		Ctrl:      core.DefaultConfig(core.CD),
		Cores:     1,
	}
	contents, err := NewContents(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"own shape", func(*Config) {}},
		{"org", func(c *Config) { c.Org = DirectMapped }},
		{"size", func(c *Config) { c.SizeBytes <<= 1 }},
		{"predictor", func(c *Config) { c.UseMAPI = true }},
	} {
		c := cfg
		c.Contents = contents
		tc.mutate(&c)
		eng := &event.Engine{}
		_, err := New(eng, c, mainmem.New(eng, mainmem.DefaultConfig()))
		if (err == nil) != (tc.name == "own shape") {
			t.Errorf("%s: New returned %v", tc.name, err)
		}
	}
}

package dcasim

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"dcasim/internal/addrmap"
	"dcasim/internal/dram"
	"dcasim/internal/event"
	"dcasim/internal/exp"
	"dcasim/internal/simtime"
	"dcasim/internal/stats"
	"dcasim/internal/workload"
)

// benchMixes controls how many Table I mixes the figure benchmarks
// evaluate (default 4; set DCASIM_BENCH_MIXES=30 for the full sweep).
func benchMixes() []Mix {
	n := 4
	if s := os.Getenv("DCASIM_BENCH_MIXES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 && v <= 30 {
			n = v
		}
	}
	return TableIMixes()[:n]
}

func reportTable(b *testing.B, tbl *stats.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if b.N == 1 && os.Getenv("DCASIM_BENCH_PRINT") != "" {
		fmt.Println(tbl)
	}
}

// --- One benchmark per table and figure of the paper ---

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := exp.TableI(benchMixes())
		reportTable(b, tbl, nil)
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := NewRunner(TestConfig(), benchMixes(), 0).TableII()
		reportTable(b, tbl, nil)
	}
}

// benchFigure regenerates one registered figure from a cold in-memory
// memo (no persistent cache) at the given worker count (<= 0 selects
// GOMAXPROCS).
func benchFigure(b *testing.B, name string, workers int) {
	for i := 0; i < b.N; i++ {
		tbl, err := NewRunner(TestConfig(), benchMixes(), workers).Figure(name)
		reportTable(b, tbl, err)
	}
}

// BenchmarkFig8 is the whole-evaluation benchmark; TestAllocPinFig8
// pins its allocation count at one worker.
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8", 0) }

// BenchmarkFigures runs every registered figure and extension study
// (exp.FigureNames) as a sub-benchmark, e.g. BenchmarkFigures/fig11.
func BenchmarkFigures(b *testing.B) {
	for _, name := range exp.FigureNames() {
		b.Run(name, func(b *testing.B) { benchFigure(b, name, 0) })
	}
}

// --- Parallel experiment engine ---

// The J1/J8 pair measures the parallel engine's speedup: cold Fig. 8 at
// a fixed worker count. Run both in one invocation for a same-machine
// A/B of a -j change.
func BenchmarkFig8J1(b *testing.B) { benchFigure(b, "fig8", 1) }
func BenchmarkFig8J8(b *testing.B) { benchFigure(b, "fig8", 8) }

// --- Microbenchmarks of the simulation substrate ---

// BenchmarkChannelIssue times command issue on one channel;
// TestIssueAllocatesNothing (internal/dram) pins its loop at zero
// allocations.
func BenchmarkChannelIssue(b *testing.B) {
	g := addrmap.Geometry{Channels: 1, Ranks: 1, Banks: 16, RowBytes: 4096, BlockSize: 64}
	ch := dram.NewChannel(dram.StackedDRAM(), g)
	accs := make([]*dram.Access, 64)
	for i := range accs {
		accs[i] = &dram.Access{
			Kind:  dram.ReadData,
			Loc:   addrmap.Loc{Bank: int32(i % 16), Row: int64(i / 16), Col: int32(i % 64)},
			Bytes: 64,
		}
	}
	b.ResetTimer()
	now := ch.BusFreeAt()
	for i := 0; i < b.N; i++ {
		now = ch.Issue(accs[i%len(accs)], now)
	}
}

func BenchmarkEventEngine(b *testing.B) {
	var eng event.Engine
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(10, fn)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// benchEventDeltas schedules bursts of 64 events at the given delta
// menu and drains between bursts — the schedule/fire rhythm the
// simulator itself produces. TestZeroAllocScheduling (internal/event)
// runs the same menus with allocations pinned at zero.
func benchEventDeltas(b *testing.B, deltas []simtime.Time) {
	var eng event.Engine
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(deltas[i%len(deltas)], fn)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// benchUniformDeltas spreads schedules uniformly up to ~1 µs, so the
// heap's order is unrelated to the order of scheduling.
var benchUniformDeltas = func() []simtime.Time {
	d := make([]simtime.Time, 1024)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = simtime.Time(x%(1<<20) + 1)
	}
	return d
}()

// BenchmarkEventUniform measures uniform deltas up to ~1 µs.
func BenchmarkEventUniform(b *testing.B) { benchEventDeltas(b, benchUniformDeltas) }

// BenchmarkEventDRAMClustered measures the regime the characterization
// test (internal/sim) shows real runs live in: deltas drawn from the
// fixed DRAM timing constants, all under 65.5 ns.
func BenchmarkEventDRAMClustered(b *testing.B) {
	benchEventDeltas(b, []simtime.Time{
		250, 1670, 3330, 5000, 7500, 8000, 11330, 15000, 27330, 30000, 50000,
	})
}

// BenchmarkEventSpill measures far-future deltas, around 2^41 ps
// (~2 s), which no simulated component produces.
func BenchmarkEventSpill(b *testing.B) {
	benchEventDeltas(b, []simtime.Time{
		1 << 41, 1<<41 + 512, 3 << 40, 1<<41 + 3*256, 1 << 42,
	})
}

func BenchmarkWorkloadGen(b *testing.B) {
	prof, _ := workload.Lookup("milc")
	g := workload.NewGen(prof, 1, 0, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkSimOneRun measures one complete small multiprogrammed
// simulation (warm-up plus timed region); TestAllocPinSimOneRun pins
// its allocation count.
func BenchmarkSimOneRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := TestConfig()
		cfg.Benchmarks = []string{"soplex", "mcf", "gcc", "libquantum"}
		cfg.Design = DCA
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

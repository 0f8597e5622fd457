package dcache

import (
	"testing"

	"dcasim/internal/cache"
	"dcasim/internal/workload"
)

// warmCalls returns the first n DRAM-cache calls of a bench-scale
// functional warm-up of the first Table I mix: four generators at the
// bench preset's working-set scale (0.25), interleaved 1024 memops at a
// time, each behind a 32 KB 2-way L1, sharing a 2 MB 16-way L2. The
// filtering mirrors cpu.(*Core).Warm.
func warmCalls(tb testing.TB, n int) []warmCall {
	mix := workload.TableI()[0]
	gens := make([]*workload.Gen, len(mix.Benchmarks))
	l1s := make([]*cache.Cache, len(gens))
	for i, name := range mix.Benchmarks {
		prof, err := workload.Lookup(name)
		if err != nil {
			tb.Fatal(err)
		}
		gens[i] = workload.NewGen(prof, uint64(i)*7919, int64(i)<<40, 0.25)
		if l1s[i], err = cache.New(32<<10, BlockBytes, 2, nil); err != nil {
			tb.Fatal(err)
		}
	}
	l2, err := cache.New(2<<20, BlockBytes, 16, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var calls []warmCall
	install := func(addr int64, dirty bool, core int) {
		if res := l2.Access(addr, dirty); !res.Hit && res.VictimValid && res.VictimDirty {
			calls = append(calls, warmCall{addr: res.VictimAddr, core: core, write: true})
		}
	}
	for len(calls) < n {
		for core, g := range gens {
			for k := 0; k < 1024; k++ {
				op := g.Next()
				res := l1s[core].Access(op.Addr, op.Store)
				if res.Hit {
					continue
				}
				if res.VictimValid && res.VictimDirty {
					install(res.VictimAddr, true, core)
				}
				if op.Store {
					continue
				}
				if res := l2.Access(op.Addr, false); !res.Hit {
					calls = append(calls, warmCall{addr: op.Addr, pc: op.PC, core: core})
					if res.VictimValid && res.VictimDirty {
						calls = append(calls, warmCall{addr: res.VictimAddr, core: core, write: true})
					}
				}
			}
		}
	}
	return calls[:n]
}

// BenchmarkWarmContents: one functional DRAM-cache call per iteration,
// WarmRead or WarmWrite, on bench-scale contents of each organization
// (64 MB over the paper's DRAM shape, MAP-I on), applied call by call
// and, in the -batched sub-benchmarks, through a WarmBatch as warm-up
// applies them. The iterations replay warmCalls' stream over contents it
// has already filled, each replay shifted to blocks not seen before, so
// the contents stay full and keep missing as a warm-up's do. Replayed
// back to back, per-call calls already let the host overlap one call's
// misses with the next, which warm-up, with its L1 and L2 work between
// calls, does not; so batching gains nothing here, and BenchmarkWarmUp
// in internal/sim is where it shows.
func BenchmarkWarmContents(b *testing.B) {
	calls := warmCalls(b, 1<<17)
	for _, org := range []Org{SetAssoc, DirectMapped} {
		for _, batched := range []bool{false, true} {
			name := org.String()
			if batched {
				name += "-batched"
			}
			b.Run(name, func(b *testing.B) {
				c, err := NewContents(Config{Org: org, SizeBytes: 64 << 20, DRAM: paperDRAM(), UseMAPI: true, Cores: 4}, nil)
				if err != nil {
					b.Fatal(err)
				}
				batch := NewWarmBatch([]*Contents{c})
				replay := func(k warmCall, shift int64) {
					switch {
					case batched && k.write:
						batch.Write(k.addr+shift, k.core)
					case batched:
						batch.Read(k.addr+shift, k.core, k.pc)
					case k.write:
						c.WarmWrite(k.addr+shift, k.core)
					default:
						c.WarmRead(k.addr+shift, k.core, k.pc)
					}
				}
				for _, k := range calls {
					replay(k, 0)
				}
				batch.Flush()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					replay(calls[i%len(calls)], int64(1+i/len(calls))<<44)
				}
				batch.Flush()
			})
		}
	}
}

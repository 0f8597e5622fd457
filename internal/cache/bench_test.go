package cache

import (
	"testing"

	"dcasim/internal/workload"
)

// access is one access of a benchmarked stream.
type access struct {
	addr  int64
	write bool
}

// BenchmarkCacheAccess: one Access per iteration on each SRAM cache of
// the bench-scale hierarchy, fed the first Table I benchmark's generator
// at the bench preset's working-set scale (0.25). /l1 is a 32 KB 2-way
// L1 taking every memop; /l2 is the 2 MB 16-way L2 behind it, taking the
// L1's load misses and dirty victims as in the functional warm-up. Each
// stream is 2^18 accesses long, and each cache is filled by one pass over
// its stream before timing.
func BenchmarkCacheAccess(b *testing.B) {
	prof, err := workload.Lookup(workload.TableI()[0].Benchmarks[0])
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGen(prof, 1, 0, 0.25)
	l1, err := New(32<<10, 64, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	var l1Stream, l2Stream []access
	for len(l2Stream) < 1<<18 {
		op := gen.Next()
		if len(l1Stream) < 1<<18 {
			l1Stream = append(l1Stream, access{op.Addr, op.Store})
		}
		res := l1.Access(op.Addr, op.Store)
		if res.Hit {
			continue
		}
		if res.VictimValid && res.VictimDirty {
			l2Stream = append(l2Stream, access{res.VictimAddr, true})
		}
		if !op.Store {
			l2Stream = append(l2Stream, access{op.Addr, false})
		}
	}
	for _, bc := range []struct {
		name   string
		size   int64
		ways   int
		stream []access
	}{
		{"l1", 32 << 10, 2, l1Stream},
		{"l2", 2 << 20, 16, l2Stream},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := New(bc.size, 64, bc.ways, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range bc.stream {
				c.Access(a.addr, a.write)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := bc.stream[i%len(bc.stream)]
				c.Access(a.addr, a.write)
			}
		})
	}
}

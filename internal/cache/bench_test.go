package cache

import (
	"testing"

	"dcasim/internal/workload"
)

// l2Access is one access of the L2's warm-up traffic.
type l2Access struct {
	addr  int64
	write bool
}

// BenchmarkCacheAccess: one Access per iteration on a bench-scale L2
// (2 MB, 16 ways) fed the L1-miss stream of a bench-scale generator: the
// first Table I benchmark at the bench preset's working-set scale (0.25)
// behind a 32 KB 2-way L1, whose load misses and dirty victims reach the
// L2 as in the functional warm-up.
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
	var stream []l2Access
	for len(stream) < 1<<18 {
		op := gen.Next()
		res := l1.Access(op.Addr, op.Store)
		if res.Hit {
			continue
		}
		if res.VictimValid && res.VictimDirty {
			stream = append(stream, l2Access{res.VictimAddr, true})
		}
		if !op.Store {
			stream = append(stream, l2Access{op.Addr, false})
		}
	}
	l2, err := New(2<<20, 64, 16, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range stream {
		l2.Access(a.addr, a.write)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stream[i%len(stream)]
		l2.Access(a.addr, a.write)
	}
}

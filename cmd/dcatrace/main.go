// Command dcatrace inspects dcasim's synthetic workload generators, the
// seeded per-benchmark memory-operation streams that drive every core.
// It has three modes:
//
//	dcatrace -bench mcf -n 20                 # dump the first 20 operations
//	dcatrace -bench lbm -summary -n 100000    # aggregate traffic statistics
//	dcatrace -list                            # available benchmarks
//
// The dump prints one operation per line: the instruction gap before
// it, load or store, the block address and the PC. -summary generates
// -n operations and reports their memory intensity, store and
// sequential fractions and the distinct blocks touched. -list prints
// each benchmark's profile. -seed and -wsscale set the generator's seed
// and working-set scale. -n must be at least 1 and -wsscale a positive
// finite number; a bad value fails with an error naming the flag.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"dcasim/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dcatrace: ")
	var (
		bench   = flag.String("bench", "mcf", "benchmark name (dump/summary modes)")
		n       = flag.Int("n", 20, "operations to generate (dump/summary modes), at least 1")
		seed    = flag.Uint64("seed", 1, "generator seed")
		scale   = flag.Float64("wsscale", 1.0, "working-set scale, a positive number (dump/summary modes)")
		summary = flag.Bool("summary", false, "print aggregate statistics instead of the operations")
		list    = flag.Bool("list", false, "list available benchmarks and their profiles")
	)
	flag.Parse()
	if *n < 1 {
		log.Fatalf("-n %d: want at least 1 operation", *n)
	}
	// workload.NewGen maps a scale <= 0 to 1, and a NaN scale to a tiny
	// working set, so neither may reach it.
	if !(*scale > 0) || math.IsInf(*scale, 0) {
		log.Fatalf("-wsscale %v: want a positive finite number", *scale)
	}

	switch {
	case *list:
		listProfiles()
	case *summary:
		summarize(*bench, *seed, *scale, *n)
	default:
		dump(*bench, *seed, *scale, *n)
	}
}

func listProfiles() {
	fmt.Printf("%-12s %8s %7s %7s %7s %7s\n", "benchmark", "mem/1k", "stores", "seq", "hot", "WS(MB)")
	for _, name := range workload.Names() {
		p, _ := workload.Lookup(name)
		fmt.Printf("%-12s %8d %6.0f%% %6.0f%% %6.0f%% %7d\n",
			p.Name, p.MemPer1000, 100*p.StoreFrac, 100*p.SeqProb, 100*p.HotProb, p.WorkingSetMB)
	}
}

func newGen(bench string, seed uint64, scale float64) *workload.Gen {
	prof, err := workload.Lookup(bench)
	if err != nil {
		log.Fatal(err)
	}
	return workload.NewGen(prof, seed, 0, scale)
}

func dump(bench string, seed uint64, scale float64, n int) {
	g := newGen(bench, seed, scale)
	fmt.Printf("# %s: gap store block-address pc\n", bench)
	for i := 0; i < n; i++ {
		op := g.Next()
		kind := "LD"
		if op.Store {
			kind = "ST"
		}
		fmt.Printf("%4d %s 0x%010x pc=0x%x\n", op.Gap, kind, op.Addr, op.PC)
	}
}

func summarize(bench string, seed uint64, scale float64, n int) {
	g := newGen(bench, seed, scale)
	var instrs, stores, seq int64
	touched := make(map[int64]struct{})
	prev := int64(-10)
	for i := 0; i < n; i++ {
		op := g.Next()
		instrs += int64(op.Gap) + 1
		if op.Store {
			stores++
		}
		if op.Addr == prev+1 {
			seq++
		}
		prev = op.Addr
		touched[op.Addr] = struct{}{}
	}
	ops := int64(n)
	fmt.Printf("benchmark        %s\n", bench)
	fmt.Printf("operations       %d over %d instructions\n", ops, instrs)
	fmt.Printf("memory intensity %.1f per 1000 instructions\n", float64(ops)/float64(instrs)*1000)
	fmt.Printf("store fraction   %.1f%%\n", 100*float64(stores)/float64(ops))
	fmt.Printf("sequential frac  %.1f%%\n", 100*float64(seq)/float64(ops))
	fmt.Printf("distinct blocks  %d (%.1f MB touched of %.1f MB footprint)\n",
		len(touched), float64(len(touched))*64/1024/1024,
		float64(g.WorkingSetBlocks())*64/1024/1024)
}

// Multiprogram: sweep several Table I workload mixes through the
// experiment runner, printing per-mix normalized weighted speedups for
// CD, ROD, and DCA on the direct-mapped organization — a miniature
// version of the paper's Fig. 11 built on the public Runner API.
package main

import (
	"fmt"
	"log"

	"dcasim"
)

func main() {
	log.SetFlags(0)
	cfg := dcasim.TestConfig()
	mixes := dcasim.TableIMixes()[:6]

	runner := dcasim.NewRunner(cfg, mixes, 0)
	table, err := runner.Figure("fig11")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Per-workload speedup, direct-mapped DRAM cache (normalized to CD):")
	fmt.Print(table)

	fmt.Println("\nWorkload mixes under test (Table I subset):")
	for _, m := range mixes {
		fmt.Printf("  mix %2d: %v\n", m.ID, m.Benchmarks)
	}
}

// Command dcalint is the repo's invariant checker: a multichecker over
// the custom analyzers in internal/lint that machine-enforces the
// simulator's headline guarantees — determinism (no wall clock, no
// math/rand, no goroutines, no unordered map iteration in simulation
// packages), the event kernel's zero-allocation contract
// (//dcalint:noalloc functions), exhaustive switches over the closed
// enums, picosecond/nanosecond unit hygiene, and never-discarded
// rescache errors.
//
// Usage:
//
//	dcalint [-list] [-only name[,name...]] [packages]
//
// With no packages, ./... is checked. Exit status is 1 if any
// diagnostic is reported, 2 on operational failure. Findings are
// suppressed line-by-line with
//
//	//nolint:dcalint/<name> -- <justification>
//
// where the justification is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dcasim/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Printf("%-15s %s\n", a.Name, doc)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "dcalint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcalint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcalint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dcalint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

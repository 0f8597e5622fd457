// Command bench is the repository's benchmark: it times the runs users of
// the simulator make, splits the time across the modules that own it,
// and checks the simulator's outputs while doing so.
//
//	go run ./bench -workload fig8-cold -seed 1 -seconds 20 -trace 0
//	go run ./bench -seed 1 > a1.json        # every workload, one process each
//	go run ./bench compare -a a1.json,a2.json -b b1.json,b2.json
//
// A run prints "sim_digest <hex>" and then, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics. Untraced
// (-trace 0) the metrics are the end-to-end ones of BENCHMARK.json;
// traced (-trace 1) they are the per-layer ones, and the spans and CPU
// profiles go to -trace-dir. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in a process of its own")
	seed := fs.Uint64("seed", 1, "seed of every workload's configuration")
	seconds := fs.Float64("seconds", 20, "length of the measuring window in seconds")
	traceFlag := fs.Int("trace", 0, "1 traces the run and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for the spans and CPU profiles of a traced run")
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	if fs.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-dir dir]")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, traceDir: *traceDir, workDir: ".bench_build"}
	var err error
	if *name == "" {
		err = runAll(o, os.Stdout)
	} else {
		err = runOne(*name, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runOne(name string, o options, w io.Writer) error {
	wl, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	res, err := measure(wl, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "sim_digest %s\n%s\n", res.Digest, line)
	return err
}

// report is the output of a run over every workload, the input of
// compare.
type report struct {
	Seed      uint64                     `json:"seed"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]workloadOutcome `json:"workloads"`
}

type workloadOutcome struct {
	result
	SimDigest string `json:"sim_digest"`
}

// runAll runs each workload in a child process of its own, one at a
// time, so peak memory and GC state belong to one workload.
func runAll(o options, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Seed: o.seed, Trace: o.trace, Workloads: map[string]workloadOutcome{}}
	for _, wl := range workloads {
		args := []string{"-workload", wl.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"-trace-dir", o.traceDir}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		oc, err := parseRunOutput(out)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		rep.Workloads[wl.name] = oc
		fmt.Fprintf(os.Stderr, "%-14s correct=%v attempted=%d failed=%d\n", wl.name, oc.Correct, oc.Attempted, oc.Failed)
		for _, k := range sortedKeys(oc.Metrics) {
			fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", k, oc.Metrics[k].Value, oc.Metrics[k].Unit)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(rep)
}

// parseRunOutput reads the digest line and the final JSON line of a
// single-workload run.
func parseRunOutput(out []byte) (workloadOutcome, error) {
	var oc workloadOutcome
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "sim_digest "); ok {
			oc.SimDigest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if last == "" {
		return oc, errors.New("no output")
	}
	if err := json.Unmarshal([]byte(last), &oc.result); err != nil {
		return oc, fmt.Errorf("last line: %w", err)
	}
	return oc, nil
}

package main

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// TestParseProfile decodes a CPU profile this test records of a labelled
// busy loop, and folds it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("bench", "pass"), func(context.Context) {
		spin(500 * time.Millisecond)
	})
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pass := p.labelled("bench", "pass")
	if n := pass.total(); n < 10 {
		t.Fatalf("%d labelled samples in 500ms of spinning", n)
	}
	name := runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name()
	if share := pass.onStackShare([]string{name}); share < 0.9 {
		t.Errorf("%s on the stack in %.2f of labelled samples, want >= 0.9", name, share)
	}
	shares := pass.flatShares()
	if shares["other"] < 0.9 { // spin lives in this package, which no module claims
		t.Errorf("flat shares %v, want other >= 0.9", shares)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("flat shares sum to %v", sum)
	}
	if got := p.labelled("bench", "setup").total(); got != 0 {
		t.Errorf("%d samples labelled setup", got)
	}

	if _, err := parseProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"dcasim/internal/cache.(*Cache).Access":              "dcasim/internal/cache",
		"dcasim/internal/cpu.(*Core).Warm.func1":             "dcasim/internal/cpu",
		"encoding/json.(*decodeState).object":                "encoding/json",
		"slices.partitionCmpFunc[go.shape.struct { a/b.T }]": "slices",
		"runtime.mallocgc":                                   "runtime",
		"aeshashbody":                                        "runtime",
		"main.spin":                                          "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	for pkg, want := range map[string]string{
		"dcasim/internal/rng":            "workload",
		"dcasim/internal/sched/atlas":    "core",
		"dcasim":                         "exp",
		"crypto/internal/fips140/sha256": "codec",
		"internal/poll":                  "syscall",
		"internal/runtime/maps":          "runtime",
		"main":                           "other",
		"dcasim/bench":                   "other",
	} {
		if got := moduleOf(pkg); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

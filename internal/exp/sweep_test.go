package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcasim/internal/rescache"
)

const testSweepJSON = `{
  "schema": 1,
  "name": "ff-mini",
  "scale": "test",
  "base": {
    "Benchmarks": ["milc", "leslie3d", "omnetpp", "gcc"],
    "Design": "DCA"
  },
  "axes": [
    {"name": "org", "values": [
      {"label": "sa", "set": {"Org": "set-assoc"}},
      {"label": "dm", "set": {"Org": "direct-mapped"}}
    ]},
    {"name": "ff", "values": [
      {"label": "FF-0", "set": {"Ctrl": {"FlushFactor": 0}}},
      {"label": "FF-4", "set": {"Ctrl": {"FlushFactor": 4}}}
    ]}
  ],
  "metrics": ["totalNS", "ofsIssues", "readRowHitRate"]
}`

func testSweep(t *testing.T) SweepSpec {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(testSweepJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSweep(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepPointsRowMajor(t *testing.T) {
	s := testSweep(t)
	got := s.Points()
	want := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("points %v, want %v", got, want)
	}
}

func TestSweepRuns(t *testing.T) {
	s := testSweep(t)
	cache, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tbl, r, err := RunSweep(s, SweepOpts{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tbl.Header(), []string{"org", "ff", "totalNS", "ofsIssues", "readRowHitRate"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("header %v, want %v", got, want)
	}
	if len(tbl.Rows()) != 4 {
		t.Fatalf("%d rows, want 4", len(tbl.Rows()))
	}
	if r.SimRuns() != 4 {
		t.Fatalf("%d simulations for 4 distinct points", r.SimRuns())
	}
	// The flushing factor must actually reach the controller: FF-0
	// forbids row-conflicting opportunistic flushes, so the two FF rows
	// of one organization differ.
	rows := tbl.Rows()
	if reflect.DeepEqual(rows[0][2:], rows[1][2:]) {
		t.Fatalf("FF-0 and FF-4 produced identical results — knob not wired?\n%s", tbl)
	}

	// A second sweep from a cold runner but warm cache is free.
	_, r2, err := RunSweep(s, SweepOpts{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if r2.SimRuns() != 0 {
		t.Fatalf("warm sweep executed %d simulations, want 0", r2.SimRuns())
	}
}

// TestSweepRejectsRecordPath: sweep points run in parallel, so a shared
// RecordPath would have every run truncating the same trace file.
func TestSweepRejectsRecordPath(t *testing.T) {
	var s SweepSpec
	if err := json.Unmarshal([]byte(testSweepJSON), &s); err != nil {
		t.Fatal(err)
	}
	s.Base = json.RawMessage(`{"Benchmarks":["mcf"],"RecordPath":"x.dct"}`)
	_, _, err := RunSweep(s, SweepOpts{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "RecordPath") {
		t.Fatalf("sweep with RecordPath not rejected: %v", err)
	}
}

// TestSweepRejectsNullSet: a null in an axis value's patch fails when
// the sweep compiles, naming its key path, before a runner exists to
// simulate anything.
func TestSweepRejectsNullSet(t *testing.T) {
	var s SweepSpec
	if err := json.Unmarshal([]byte(testSweepJSON), &s); err != nil {
		t.Fatal(err)
	}
	s.Axes[1].Values[1].Set = raw(`{"Timing":{"TWTR":null}}`)
	tbl, r, err := RunSweep(s, SweepOpts{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "patch sets Timing.TWTR to null") {
		t.Fatalf("sweep with a null set value not rejected: %v", err)
	}
	if tbl != nil || r != nil {
		t.Fatal("a sweep that failed to compile returned a table or a runner")
	}
}

func TestSweepValidation(t *testing.T) {
	ok := testSweep(t)

	mutate := func(f func(*SweepSpec)) SweepSpec {
		var s SweepSpec
		if err := json.Unmarshal([]byte(testSweepJSON), &s); err != nil {
			t.Fatal(err)
		}
		f(&s)
		return s
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]SweepSpec{
		"wrong schema": mutate(func(s *SweepSpec) { s.Schema = 99 }),
		"no axes":      mutate(func(s *SweepSpec) { s.Axes = nil }),
		"empty axis":   mutate(func(s *SweepSpec) { s.Axes[0].Values = nil }),
		"bad metric":   mutate(func(s *SweepSpec) { s.Metrics = []string{"nope"} }),
		"no metrics":   mutate(func(s *SweepSpec) { s.Metrics = nil }),
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A product of 60^10 points and 10^12 replicates each fail with an
	// error naming the bound, from Validate and from LoadSweep, rather
	// than allocating every run's config.
	wide, err := json.Marshal(mutate(func(s *SweepSpec) {
		s.Axes = nil
		for i := 0; i < 10; i++ {
			ax := SweepAxis{Name: fmt.Sprintf("a%d", i)}
			for v := 0; v < 60; v++ {
				ax.Values = append(ax.Values, SweepPoint{Label: fmt.Sprint(v), Set: raw(`{}`)})
			}
			s.Axes = append(s.Axes, ax)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	for bound, doc := range map[string]string{
		"100000": string(wide),
		"1000":   strings.Replace(testSweepJSON, `"scale"`, `"replicates": 1000000000000, "scale"`, 1),
	} {
		var s SweepSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "big.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, loadErr := LoadSweep(path)
		for _, err := range []error{s.Validate(), loadErr} {
			if err == nil || !strings.Contains(err.Error(), bound) {
				t.Errorf("want an error naming the bound %s, got %v", bound, err)
			}
		}
	}

	// Unknown top-level fields in the file are rejected at load.
	path := filepath.Join(t.TempDir(), "bad.json")
	bad := strings.Replace(testSweepJSON, `"name"`, `"nmae"`, 1)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSweep(path); err == nil {
		t.Error("LoadSweep accepted an unknown field")
	}
}

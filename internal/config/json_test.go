package config

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/simtime"
)

// presets returns every preset plus a variant exercising the optional
// fields (controller override, tag cache, algorithm, benchmarks).
func presets() map[string]Config {
	full := Bench()
	full.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	full.Design = core.ROD
	full.Org = dcache.DirectMapped
	full.XORRemap = true
	full.LeeWriteback = true
	full.Algorithm = core.AlgFRFCFS
	ctrl := core.DefaultConfig(core.ROD)
	ctrl.Algorithm = core.AlgFRFCFS // must match the top level (Validate)
	ctrl.FlushFactor = 2
	full.Ctrl = &ctrl
	return map[string]Config{
		"paper": Paper(),
		"bench": Bench(),
		"test":  Test(),
		"full":  full,
	}
}

// TestJSONRoundTrip: canonical encode → decode must reproduce every
// preset exactly, including nested pointers and enum fields.
func TestJSONRoundTrip(t *testing.T) {
	for name, cfg := range presets() {
		enc, err := cfg.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Config
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Errorf("%s: round trip diverged:\n got %+v\nwant %+v", name, back, cfg)
		}
	}
}

// TestHashStability pins Config.Hash() for the presets reached by name:
// cache keys must not change silently. A schema change (a field added,
// removed, renamed, or changed in meaning) must bump SchemaVersion, which
// changes every hash at once, and presetHashes with it.
func TestHashStability(t *testing.T) {
	for name, h := range presetHashes {
		cfg, err := ParsePreset(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Hash(); got != h {
			t.Errorf("%s hash changed: got %s want %s — config schema drifted without a SchemaVersion bump?", name, got, h)
		}
	}
}

// TestSchemaVersionExtractable guards the sed pattern CI uses to derive
// the result-cache key from this package's source: the constant must
// stay on a single `const SchemaVersion = N` line, or the workflow's
// extraction comes up empty and its guard aborts the job.
func TestSchemaVersionExtractable(t *testing.T) {
	data, err := os.ReadFile("json.go")
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^const SchemaVersion = ([0-9]+)$`)
	m := re.FindSubmatch(data)
	if m == nil {
		t.Fatal("`const SchemaVersion = N` line not found — CI derives its cache key from it (see .github/workflows/ci.yml)")
	}
	if got := fmt.Sprintf("%d", SchemaVersion); string(m[1]) != got {
		t.Fatalf("extracted %s, constant is %s", m[1], got)
	}
}

func TestHashDistinguishesConfigs(t *testing.T) {
	a := Test()
	b := Test()
	b.Seed++
	if a.Hash() == b.Hash() {
		t.Fatal("different configs must hash differently")
	}
	if a.Hash() != Test().Hash() {
		t.Fatal("equal configs must hash equally")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	for name, cfg := range presets() {
		if err := Save(path, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Errorf("%s: Save/Load diverged:\n got %+v\nwant %+v", name, back, cfg)
		}
	}
}

func TestLoadRejectsUnknownFieldsAndSchema(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := Load(write("unknown.json", `{"schema":2,"config":{"Desing":"DCA"}}`)); err == nil || !strings.Contains(err.Error(), "Desing") {
		t.Errorf("Load accepted an unknown config field, or failed on something else: %v", err)
	}
	if _, err := Load(write("schema.json", `{"schema":999,"config":{}}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("Load accepted a future schema: %v", err)
	}
	// Schema-2 files could name the AlgParams tunable maps and the ATLAS
	// policy; both are gone, and a file naming either fails, naming it.
	for _, tc := range []struct{ file, content, name string }{
		{"algparams.json", `{"schema":2,"config":{"Algorithm":"BLISS","AlgParams":{"Threshold":2}}}`, "AlgParams"},
		{"atlas.json", `{"schema":2,"config":{"Algorithm":"ATLAS"}}`, "ATLAS"},
	} {
		if _, err := Load(write(tc.file, tc.content)); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: Load error %v, want one naming %s", tc.file, err, tc.name)
		}
	}
}

func TestParsePreset(t *testing.T) {
	for _, name := range []string{"paper", "bench", "test"} {
		if _, err := ParsePreset(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ParsePreset("huge"); err == nil {
		t.Error("ParsePreset accepted an unknown scale")
	}
}

func TestPatchDeepMerge(t *testing.T) {
	base := Test()
	got, err := base.Patch(json.RawMessage(`{"Timing":{"TWTR":2500},"Design":"ROD","Org":"dm"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Timing.TWTR != 2500 {
		t.Errorf("TWTR not patched: %v", got.Timing.TWTR)
	}
	if got.Timing.TRCD != simtime.FromNS(8) {
		t.Errorf("deep merge clobbered sibling timing field: %v", got.Timing.TRCD)
	}
	if got.Design != core.ROD || got.Org != dcache.DirectMapped {
		t.Errorf("enum patches not applied: %v %v", got.Design, got.Org)
	}
	// Unpatched fields survive untouched.
	want := base
	want.Timing.TWTR = 2500
	want.Design = core.ROD
	want.Org = dcache.DirectMapped
	if !reflect.DeepEqual(got, want) {
		t.Errorf("patch changed unrelated fields:\n got %+v\nwant %+v", got, want)
	}
}

func TestPatchCtrlMerge(t *testing.T) {
	// A Ctrl patch against a nil Ctrl materializes the effective
	// defaults of the selected design first, so a single-knob override
	// edits the machine the run would actually use — the sweep-axis
	// idiom for knobs like FlushFactor.
	base := Test() // Design DCA, Ctrl nil
	ffOnly, err := base.Patch(json.RawMessage(`{"Ctrl":{"FlushFactor":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig(core.DCA)
	want.FlushFactor = 2
	if ffOnly.Ctrl == nil || !reflect.DeepEqual(*ffOnly.Ctrl, want) {
		t.Fatalf("Ctrl patch did not materialize defaults: %+v", ffOnly.Ctrl)
	}
	if err := ffOnly.Validate(); err == nil {
		// Test() has no benchmarks, so full validation can't pass here;
		// check just the controller part instead.
		t.Fatal("expected benchmark validation error")
	}
	if err := ffOnly.CtrlConfig().Validate(); err != nil {
		t.Fatalf("materialized Ctrl invalid: %v", err)
	}

	// The design selected in the same patch governs the defaults.
	rodFF, err := base.Patch(json.RawMessage(`{"Design":"ROD","Ctrl":{"FlushFactor":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if rodFF.Ctrl.Design != core.ROD || rodFF.Ctrl.ReadQueueCap != 32 || rodFF.Ctrl.WriteQueueCap != 96 {
		t.Fatalf("Ctrl defaults not taken from the patched design: %+v", rodFF.Ctrl)
	}

	// A later patch merges into the existing Ctrl rather than replacing
	// it, and an explicit null restores the defaults.
	again, err := ffOnly.Patch(json.RawMessage(`{"Ctrl":{"FlushFactor":6}}`))
	if err != nil {
		t.Fatal(err)
	}
	if again.Ctrl.FlushFactor != 6 || again.Ctrl.ReadQueueCap != 64 {
		t.Fatalf("Ctrl deep merge lost fields: %+v", again.Ctrl)
	}
	cleared, err := again.Patch(json.RawMessage(`{"Ctrl":null}`))
	if err != nil {
		t.Fatal(err)
	}
	if cleared.Ctrl != nil {
		t.Fatalf("explicit Ctrl:null did not clear the override: %+v", cleared.Ctrl)
	}
}

// TestValidateRejectsCtrlDivergence: with an explicit Ctrl the
// controller consumes Ctrl.Design/Ctrl.Algorithm, so a diverging
// top-level value would be silently inert yet still change the hash —
// it must be rejected, not simulated under the wrong label.
func TestValidateRejectsCtrlDivergence(t *testing.T) {
	base := Test()
	base.Benchmarks = []string{"mcf"}
	ctrl := core.DefaultConfig(core.DCA)
	base.Ctrl = &ctrl

	ok := base
	if err := ok.Validate(); err != nil {
		t.Fatalf("consistent Ctrl rejected: %v", err)
	}
	badDesign := base
	badDesign.Design = core.CD
	if err := badDesign.Validate(); err == nil || !strings.Contains(err.Error(), "Ctrl.Design") {
		t.Errorf("diverging Design accepted: %v", err)
	}
	badAlg := base
	badAlg.Algorithm = core.AlgFCFS
	if err := badAlg.Validate(); err == nil || !strings.Contains(err.Error(), "Ctrl.Algorithm") {
		t.Errorf("diverging Algorithm accepted: %v", err)
	}
}

func TestPatchRejectsUnknownField(t *testing.T) {
	if _, err := Test().Patch(json.RawMessage(`{"Desing":"DCA"}`)); err == nil {
		t.Fatal("Patch accepted an unknown field")
	}
}

func TestPatchKeepsLargeIntsExact(t *testing.T) {
	base := Paper()                                                      // 500 M instructions, 256 MB sizes
	got, err := base.Patch(json.RawMessage(`{"Seed":9007199254740993}`)) // 2^53+1
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 9007199254740993 {
		t.Errorf("seed lost precision through the patch path: %d", got.Seed)
	}
	if got.InstrPerCore != base.InstrPerCore || got.CacheSizeBytes != base.CacheSizeBytes {
		t.Error("unpatched large ints drifted through the patch path")
	}
}

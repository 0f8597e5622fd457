package config_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/exp"
)

// TestPatchKeyCase: patch keys match fields the way Load matches them,
// case-insensitively, whatever the spelling sorts like against the
// field name; the Ctrl rules (materialize on a nil Ctrl, null restores
// the defaults) hold for every spelling of Ctrl.
func TestPatchKeyCase(t *testing.T) {
	withCtrl := config.Test()
	cc := withCtrl.CtrlConfig()
	cc.FlushFactor = 6
	withCtrl.Ctrl = &cc
	for _, tc := range []struct {
		patch string
		base  config.Config
		check func(config.Config) bool
	}{
		{`{"Seed":5}`, config.Test(), func(c config.Config) bool { return c.Seed == 5 }},
		{`{"SEED":5}`, config.Test(), func(c config.Config) bool { return c.Seed == 5 }},
		{`{"seed":5}`, config.Test(), func(c config.Config) bool { return c.Seed == 5 }},
		{`{"ORG":"dm"}`, config.Test(), func(c config.Config) bool { return c.Org == dcache.DirectMapped }},
		{`{"org":"dm"}`, config.Test(), func(c config.Config) bool { return c.Org == dcache.DirectMapped }},
		{`{"TIMING":{"twtr":2500}}`, config.Test(), func(c config.Config) bool {
			return c.Timing.TWTR == 2500 && c.Timing.TRCD == config.Test().Timing.TRCD
		}},
		{`{"design":"ROD","CTRL":{"flushfactor":2}}`, config.Test(), func(c config.Config) bool {
			want := core.DefaultConfig(core.ROD)
			want.FlushFactor = 2
			return c.Ctrl != nil && reflect.DeepEqual(*c.Ctrl, want)
		}},
		{`{"ctrl":{"FlushFactor":1}}`, withCtrl, func(c config.Config) bool {
			return c.Ctrl != nil && c.Ctrl.FlushFactor == 1 && c.Ctrl.ReadQueueCap == cc.ReadQueueCap
		}},
		{`{"ctrl":null}`, withCtrl, func(c config.Config) bool { return c.Ctrl == nil }},
		{`{"CTRL":null}`, withCtrl, func(c config.Config) bool { return c.Ctrl == nil }},
	} {
		got, err := tc.base.Patch(json.RawMessage(tc.patch))
		if err != nil {
			t.Errorf("%s: %v", tc.patch, err)
			continue
		}
		if !tc.check(got) {
			t.Errorf("%s: not applied: %+v", tc.patch, got)
		}
	}
}

// TestPatchRejectsNull: a null anywhere but as the value of Ctrl fails
// with an error naming its key path, instead of silently zeroing (or
// keeping) the field.
func TestPatchRejectsNull(t *testing.T) {
	for patch, path := range map[string]string{
		`{"Seed":null}`:                                 "Seed",
		`{"Timing":{"TWTR":null}}`:                      "Timing.TWTR",
		`{"CPU":null}`:                                  "CPU",
		`{"Benchmarks":["mcf",null]}`:                   "Benchmarks[1]",
		`{"Ctrl":{"FlushFactor":null}}`:                 "Ctrl.FlushFactor",
		`{"Design":"CD","timing":{"tRP":1,"TWR":null}}`: "timing.TWR",
	} {
		_, err := config.Test().Patch(json.RawMessage(patch))
		want := "config: patch sets " + path + " to null; only Ctrl accepts null"
		if err == nil || err.Error() != want {
			t.Errorf("%s: got error %v, want %q", patch, err, want)
		}
	}
}

// fuzzBases are the configs FuzzPatch patches: a bare preset, a preset
// with a mix, and one whose Benchmarks and Ctrl are both set, so
// aliasing either shows.
func fuzzBases() []config.Config {
	mix := config.Bench()
	mix.Benchmarks = []string{"mcf", "lbm", "gcc", "milc"}
	full := mix
	full.Benchmarks = []string{"soplex", "mcf", "libquantum", "omnetpp"}
	full.Design, full.Org = core.ROD, dcache.DirectMapped
	ctrl := full.CtrlConfig()
	ctrl.FlushFactor = 3
	full.Ctrl = &ctrl
	return []config.Config{config.Test(), mix, full}
}

func mustCanonical(t *testing.T, c config.Config) []byte {
	t.Helper()
	b, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mutate writes through every reference-typed field of c.
func mutate(c config.Config) {
	if len(c.Benchmarks) > 0 {
		c.Benchmarks[0] += "-mutated"
	}
	if c.Ctrl != nil {
		c.Ctrl.FlushFactor++
	}
}

// oracleDomain reports whether the oracle is expected to agree with
// Patch on patches: every key naming a struct field is spelled as the
// field, and no value is null except a top-level Ctrl. Patches that do
// not decode as objects fail on both sides and are in the domain.
func oracleDomain(patches []json.RawMessage) bool {
	cfgType := reflect.TypeOf(config.Config{})
	for _, p := range patches {
		if len(p) == 0 {
			continue
		}
		var pm map[string]interface{}
		dec := json.NewDecoder(bytes.NewReader(p))
		dec.UseNumber()
		if dec.Decode(&pm) != nil {
			continue
		}
		if v, ok := pm["Ctrl"]; ok && v == nil {
			delete(pm, "Ctrl")
		}
		if !canonicalKeys(pm, cfgType) {
			return false
		}
	}
	return true
}

// canonicalKeys walks v alongside the Go type it decodes into.
func canonicalKeys(v interface{}, t reflect.Type) bool {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch v := v.(type) {
	case nil:
		return false
	case map[string]interface{}:
		for k, e := range v {
			switch t.Kind() {
			case reflect.Struct:
				if f, ok := t.FieldByName(k); ok {
					if !canonicalKeys(e, f.Type) {
						return false
					}
					continue
				}
				for i := 0; i < t.NumField(); i++ {
					if strings.EqualFold(t.Field(i).Name, k) {
						return false
					}
				}
			case reflect.Map:
				if !canonicalKeys(e, t.Elem()) {
					return false
				}
			}
		}
	case []interface{}:
		if t.Kind() != reflect.Slice && t.Kind() != reflect.Array {
			return true
		}
		for _, e := range v {
			if !canonicalKeys(e, t.Elem()) {
				return false
			}
		}
	}
	return true
}

// FuzzPatch checks Patch against oraclePatch, the JSON-merge
// implementation it replaced, over chains of three patches on three
// bases. Whatever the input, Patch never changes its base, and a result
// shares no memory with it. Inside the oracle's domain (see
// oracleDomain) both sides fail together or produce the same canonical
// bytes. The seed corpus is every patch of the registered figures and
// of the checked-in sweep specs.
func FuzzPatch(f *testing.F) {
	bases := fuzzBases()
	seen := map[string]bool{}
	add := func(a, b, c json.RawMessage) {
		key := string(a) + "\x00" + string(b) + "\x00" + string(c)
		if seen[key] {
			return
		}
		seen[key] = true
		for i := range bases {
			f.Add(uint8(i), []byte(a), []byte(b), []byte(c))
		}
	}
	for _, spec := range exp.Figures {
		for _, row := range spec.Rows {
			for _, col := range spec.Cols {
				add(spec.Patch, row.Patch, col.Patch)
				add(row.Patch, col.Patch, col.Baseline)
			}
		}
	}
	sweeps, err := filepath.Glob(filepath.FromSlash("../../examples/sweep/*.json"))
	if err != nil {
		f.Fatal(err)
	}
	more, err := filepath.Glob(filepath.FromSlash("../../testdata/sweep_*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(sweeps) == 0 || len(more) == 0 {
		f.Fatal("no sweep specs found for the seed corpus")
	}
	for _, path := range append(sweeps, more...) {
		spec, err := exp.LoadSweep(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, idx := range spec.Points() {
			var sets [2]json.RawMessage
			for i := 0; i < len(idx) && i < len(sets); i++ {
				sets[i] = spec.Axes[i].Values[idx[i]].Set
			}
			add(spec.Base, sets[0], sets[1])
		}
	}
	for _, p := range []string{
		// Names outside the schema: the removed AlgParams maps and the
		// removed ATLAS policy fail on both sides.
		`{"AlgParams":{"Threshold":2},"Ctrl":{"AlgParams":{"Threshold":3}}}`,
		`{"Ctrl":{"AlgParams":{"QuantumNS":10000}}}`,
		`{"Algorithm":"ATLAS"}`,
		`{"Ctrl":{"Algorithm":"atlas"}}`,
		`{"Algorithm":"Fr-FcFs","Design":"rod"}`,
		`{"Ctrl":null}`,
		`{"Seed":null}`,
		`{"SEED":5,"Seed":6}`,
		`{"Benchmarks":[]}`,
		`null`,
	} {
		add(json.RawMessage(p), nil, nil)
	}
	f.Fuzz(func(t *testing.T, which uint8, a, b, c []byte) {
		base := fuzzBases()[int(which)%len(bases)]
		before := mustCanonical(t, base)
		patches := []json.RawMessage{a, b, c}
		got, err := base.Patch(patches...)
		if !bytes.Equal(mustCanonical(t, base), before) {
			t.Fatal("Patch changed its base")
		}
		if oracleDomain(patches) {
			want, wantErr := oraclePatch(base, patches...)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("Patch error %v, oracle error %v", err, wantErr)
			case err == nil && !bytes.Equal(mustCanonical(t, got), mustCanonical(t, want)):
				t.Fatalf("Patch and oracle disagree:\n got %s\nwant %s", mustCanonical(t, got), mustCanonical(t, want))
			}
		}
		if err == nil {
			mutate(got)
			if !bytes.Equal(mustCanonical(t, base), before) {
				t.Fatal("mutating a patched config changed its base")
			}
		}
	})
}

// Sinks keep the benchmarked calls' results alive.
var (
	patchSink config.Config
	hashSink  string
)

// BenchmarkConfigPatch patches the way Fig. 8's grid does on TestConfig:
// each row patched from the base, each column from its row, and each
// baseline from its column.
func BenchmarkConfigPatch(b *testing.B) {
	var spec exp.TableSpec
	for _, s := range exp.Figures {
		if s.Name == "fig8" {
			spec = s
		}
	}
	base := config.Test()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range spec.Rows {
			rowCfg, err := base.Patch(spec.Patch, row.Patch)
			if err != nil {
				b.Fatal(err)
			}
			for _, col := range spec.Cols {
				cfg, err := rowCfg.Patch(col.Patch)
				if err == nil {
					patchSink, err = cfg.Patch(col.Baseline)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkConfigApply is BenchmarkConfigPatch over patches parsed
// once, ahead of the loop, as the experiment runner applies them.
func BenchmarkConfigApply(b *testing.B) {
	var spec exp.TableSpec
	for _, s := range exp.Figures {
		if s.Name == "fig8" {
			spec = s
		}
	}
	parse := func(p json.RawMessage) config.ParsedPatch {
		pp, err := config.ParsePatch(p)
		if err != nil {
			b.Fatal(err)
		}
		return pp
	}
	table := parse(spec.Patch)
	rows := make([]config.ParsedPatch, len(spec.Rows))
	for i, row := range spec.Rows {
		rows[i] = parse(row.Patch)
	}
	cols := make([][2]config.ParsedPatch, len(spec.Cols))
	for i, col := range spec.Cols {
		cols[i] = [2]config.ParsedPatch{parse(col.Patch), parse(col.Baseline)}
	}
	base := config.Test()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			rowCfg, err := base.Apply(table, row)
			if err != nil {
				b.Fatal(err)
			}
			for _, col := range cols {
				cfg, err := rowCfg.Apply(col[0])
				if err == nil {
					patchSink, err = cfg.Apply(col[1])
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkConfigHash hashes one four-core run config at TestConfig.
func BenchmarkConfigHash(b *testing.B) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "lbm", "gcc", "milc"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashSink = cfg.Hash()
	}
}

package config_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/exp"
)

// marshalOracle is the encoding Canonical replaced and must reproduce:
// encoding/json over the Config type, through the enums' MarshalJSON
// methods.
func marshalOracle(c config.Config) ([]byte, error) { return json.Marshal(c) }

// checkCanonical compares Canonical with the oracle: equal bytes when
// the oracle succeeds, and an error from both when it fails.
func checkCanonical(t *testing.T, c config.Config) {
	t.Helper()
	got, err := c.Canonical()
	want, wantErr := marshalOracle(c)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("Canonical error %v, oracle error %v", err, wantErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("Canonical and oracle disagree:\n got %s\nwant %s", got, want)
	}
}

// fill sets every leaf under v to a value distinct from its neighbours,
// numbering the leaves in declaration order from *n. Enums take
// valid values, alternating with the leaf's parity; bools are true
// on odd leaves when odd is set, on even leaves otherwise, so two runs
// with opposite odd show every bool both ways.
func fill(t *testing.T, v reflect.Value, n *int, odd bool) {
	t.Helper()
	*n++
	pick := *n%2 == 1
	switch v.Interface().(type) {
	case core.Design:
		v.Set(reflect.ValueOf(map[bool]core.Design{true: core.ROD, false: core.DCA}[pick]))
		return
	case dcache.Org:
		v.Set(reflect.ValueOf(map[bool]dcache.Org{true: dcache.DirectMapped, false: dcache.SetAssoc}[pick]))
		return
	case core.Algorithm:
		v.Set(reflect.ValueOf(map[bool]core.Algorithm{true: core.AlgFRFCFS, false: core.AlgFCFS}[pick]))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n, odd)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n, odd)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		fill(t, s.Index(0), n, odd)
		fill(t, s.Index(1), n, odd)
		v.Set(s)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d<&>", *n))
	case reflect.Bool:
		v.SetBool(pick == odd)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("Config holds a %v, which the canonical encoder and this walk do not cover", v.Type())
	}
}

// TestCanonicalMatchesMarshal: with every leaf field of Config set to a
// distinct value (Ctrl included), Canonical writes exactly the oracle's
// bytes, so a field added to Config or to a struct inside it, and not
// to the encoder, fails here. An empty Config agrees too.
func TestCanonicalMatchesMarshal(t *testing.T) {
	for _, odd := range []bool{true, false} {
		var c config.Config
		n := 0
		fill(t, reflect.ValueOf(&c).Elem(), &n, odd)
		if c.Ctrl == nil {
			t.Fatal("the walk left Ctrl unset")
		}
		checkCanonical(t, c)
	}
	checkCanonical(t, config.Config{})
}

type badConfig struct {
	field string
	cfg   config.Config
}

// unencodable lists configs the json.Marshal oracle cannot encode, by
// the field at fault: a Design or Algorithm outside the paper's, an unknown
// Org, and a NaN or infinite float at the top level or in Ctrl.
func unencodable() []badConfig {
	base := config.Test()
	base.Benchmarks = []string{"mcf"}
	var cases []badConfig
	add := func(field string, set func(*config.Config)) {
		c := base
		set(&c)
		cases = append(cases, badConfig{field, c})
	}
	ctrl := func(f func(*core.Config)) func(*config.Config) {
		return func(c *config.Config) {
			cc := c.CtrlConfig()
			f(&cc)
			c.Ctrl = &cc
		}
	}
	add("Design", func(c *config.Config) { c.Design = core.Design(99) })
	add("Org", func(c *config.Config) { c.Org = dcache.Org(7) })
	add("Algorithm", func(c *config.Config) { c.Algorithm = "bogus" })
	add("WSScale", func(c *config.Config) { c.WSScale = math.NaN() })
	add("WSScale", func(c *config.Config) { c.WSScale = math.Inf(1) })
	add("CPU.FreqGHz", func(c *config.Config) { c.CPU.FreqGHz = math.Inf(1) })
	add("Ctrl.Design", ctrl(func(cc *core.Config) { cc.Design = core.Design(99) }))
	add("Ctrl.WriteFlushLow", ctrl(func(cc *core.Config) { cc.WriteFlushLow = math.NaN() }))
	add("Ctrl.WriteFlushHigh", ctrl(func(cc *core.Config) { cc.WriteFlushHigh = math.NaN() }))
	add("Ctrl.ScheduleAllHigh", ctrl(func(cc *core.Config) { cc.ScheduleAllHigh = math.NaN() }))
	add("Ctrl.ScheduleAllLow", ctrl(func(cc *core.Config) { cc.ScheduleAllLow = math.Inf(-1) }))
	return cases
}

// TestUnencodableConfigs: Canonical and TryHash fail, naming the field,
// where the oracle fails, and Hash panics.
func TestUnencodableConfigs(t *testing.T) {
	for _, tc := range unencodable() {
		c := tc.cfg
		if _, err := marshalOracle(c); err == nil {
			t.Fatalf("%s: the oracle encodes this config; the case tests nothing", tc.field)
		}
		if _, err := c.Canonical(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Canonical error %v, want one naming the field", tc.field, err)
		}
		if h, err := c.TryHash(); err == nil || h != "" {
			t.Errorf("%s: TryHash = %q, %v; want an error", tc.field, h, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Hash did not panic", tc.field)
				}
			}()
			_ = c.Hash()
		}()
	}
}

// TestValidateRejectsUnencodable: Validate rejects every config the
// hash cannot encode, naming the field (as core.Config calls it under
// Ctrl; core names an unknown design or algorithm), so a
// validated config always hashes.
func TestValidateRejectsUnencodable(t *testing.T) {
	for _, tc := range unencodable() {
		name := strings.ToLower(strings.TrimPrefix(tc.field, "Ctrl."))
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(strings.ToLower(err.Error()), name) {
			t.Errorf("%s: Validate error %v, want one naming the field", tc.field, err)
		}
	}
}

// canonicalBases are FuzzCanonical's configs: the presets and the
// result of every figure's and every checked-in sweep's patches.
func canonicalBases(f *testing.F) []config.Config {
	mix := config.Test()
	mix.Benchmarks = []string{"mcf", "lbm", "gcc", "milc"}
	bases := []config.Config{config.Paper(), config.Bench(), config.Test()}
	seen := map[string]bool{}
	add := func(base config.Config, patches ...json.RawMessage) {
		c, err := base.Patch(patches...)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := c.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		if !seen[string(enc)] {
			seen[string(enc)] = true
			bases = append(bases, c)
		}
	}
	for _, spec := range exp.Figures {
		for _, row := range spec.Rows {
			for _, col := range spec.Cols {
				if col.Div == nil {
					add(mix, spec.Patch, row.Patch, col.Patch)
					add(mix, spec.Patch, row.Patch, col.Patch, col.Baseline)
				}
			}
		}
	}
	paths, err := filepath.Glob(filepath.FromSlash("../../examples/sweep/*.json"))
	more, err2 := filepath.Glob(filepath.FromSlash("../../testdata/sweep_*.json"))
	if err != nil || err2 != nil || len(paths) == 0 || len(more) == 0 {
		f.Fatalf("no sweep specs found for the seed corpus (%v, %v)", err, err2)
	}
	paths = append(paths, more...)
	for _, path := range paths {
		spec, err := exp.LoadSweep(path)
		if err != nil {
			f.Fatal(err)
		}
		base, err := config.ParsePreset(spec.Scale)
		if err != nil {
			f.Fatal(err)
		}
		for _, idx := range spec.Points() {
			patches := []json.RawMessage{spec.Base}
			for i, v := range idx {
				patches = append(patches, spec.Axes[i].Values[v].Set)
			}
			add(base, patches...)
		}
	}
	return bases
}

// FuzzCanonical checks Canonical against the json.Marshal oracle: the
// bytes are equal when the oracle succeeds, and both fail together. The
// input which picks a base config (canonicalBases), and each bit of mode
// overwrites some of its fields with the other inputs: arbitrary
// strings appended to Benchmarks, a set Ctrl, floats in WSScale,
// CPU.FreqGHz and a Ctrl threshold, enums in and out of range (names
// outside the paper's grid too), and Ctrl cleared.
func FuzzCanonical(f *testing.F) {
	bases := canonicalBases(f)
	for i := range bases {
		f.Add(uint8(i), uint8(0), "", "", "", 0.0, 0, 0, "")
	}
	lsep, psep := string(rune(0x2028)), string(rune(0x2029))
	for _, s := range []string{"<a&b>", "line" + lsep + "para" + psep, "bad\xffutf8\xc3", "\x00\b\f\n\r\t\x1f\x7f\"\\", "\xc3\xa9\xe2\x82\xac\xf0\x9d\x84\x9e"} {
		f.Add(uint8(2), uint8(0x0b), s, s, s, 1.0, 0, 0, "")
	}
	negZero := math.Copysign(0, -1)
	for _, v := range []float64{1e-7, 1e-6, 1e21, 1e20, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 123456.789} {
		f.Add(uint8(2), uint8(0x88), "", "", "", v, 0, 0, "")
	}
	for _, e := range []struct {
		design, org int
		alg         string
	}{{0, 0, ""}, {2, 1, "frfcfs"}, {1, 0, "BLISS"}, {-1, 0, "FCFS"}, {3, 0, ""}, {0, 2, ""}, {0, -1, ""}, {99, 7, "bogus"}, {0, 0, "ATLAS"}, {2, 0, "Fr-FcFs"}} {
		f.Add(uint8(2), uint8(0x60), "", "", "", 0.0, e.design, e.org, e.alg)
		f.Add(uint8(2), uint8(0x68), "", "", "", 0.5, e.design, e.org, e.alg)
	}
	f.Fuzz(func(t *testing.T, which, mode uint8, bench, bench2, bench3 string, val float64, design, org int, alg string) {
		c := bases[int(which)%len(bases)]
		if mode&0x01 != 0 {
			c.Benchmarks = append(slices.Clip(c.Benchmarks), bench)
		}
		if mode&0x02 != 0 {
			c.Benchmarks = append(slices.Clip(c.Benchmarks), bench2, bench3)
		}
		if mode&0x08 != 0 {
			cc := c.CtrlConfig()
			cc.WriteFlushLow = val
			c.Ctrl = &cc
		}
		if mode&0x10 != 0 {
			c.Ctrl = nil
		}
		if mode&0x20 != 0 {
			c.Design, c.Org = core.Design(design), dcache.Org(org)
		}
		if mode&0x40 != 0 {
			c.Algorithm = core.Algorithm(alg)
			if c.Ctrl != nil {
				cc := *c.Ctrl
				cc.Algorithm = core.Algorithm(alg)
				c.Ctrl = &cc
			}
		}
		if mode&0x80 != 0 {
			c.WSScale, c.CPU.FreqGHz = val, -val
		}
		checkCanonical(t, c)
	})
}

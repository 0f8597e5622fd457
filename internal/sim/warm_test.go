package sim

import (
	"reflect"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
	"dcasim/internal/sched"
	_ "dcasim/internal/sched/policies"
)

// warmFields are the Config fields the functional warm-up reads. WarmKey
// must change when any of them changes.
var warmFields = map[string]bool{
	"Benchmarks": true, "Seed": true, "WSScale": true, "WarmMemops": true,
	"Org": true, "CacheSizeBytes": true,
	"Channels": true, "Ranks": true, "Banks": true, "RowBytes": true,
	"UseMAPI": true, "L1Bytes": true, "L1Ways": true, "L2Bytes": true, "L2Ways": true,
}

// timedFields are the Config fields only the timed region reads. WarmKey
// must not change when they do.
var timedFields = map[string]bool{
	"Design": true, "XORRemap": true, "LeeWriteback": true, "TagCacheKB": true,
	"BEARProbe": true, "Algorithm": true, "AlgParams": true, "Timing": true,
	"Ctrl": true, "MainMem": true, "CPU": true, "L2HitLat": true, "InstrPerCore": true,
}

// traceFields select trace replay or recording, which never share warm
// state.
var traceFields = map[string]bool{"TracePath": true, "RecordPath": true}

// perturb changes v, a settable value, to a different value of its type:
// every settable leaf of a struct, nil pointers and maps to non-nil ones.
// It reports false for a kind it cannot change.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem())
		v.Set(m)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		changed := false
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() && perturb(f) {
				changed = true
			}
		}
		return changed
	default:
		return false
	}
	return true
}

// TestWarmKeyCoversWarmFields pins WarmKey to the warm-up's inputs:
// every Config field is classified, perturbing a warm field changes the
// key, perturbing a timed field leaves it alone, and a trace field makes
// the config unshareable. A newly added field fails until it is
// classified (and, if warm-up reads it, added to WarmKey).
func TestWarmKeyCoversWarmFields(t *testing.T) {
	base := config.Test()
	base.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	baseKey, ok := WarmKey(base)
	if !ok {
		t.Fatal("a synthetic config has no warm key")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := base
		cfg.Benchmarks = append([]string(nil), base.Benchmarks...)
		if !perturb(reflect.ValueOf(&cfg).Elem().Field(i)) {
			t.Errorf("field %s: cannot perturb its kind; extend perturb", name)
			continue
		}
		key, ok := WarmKey(cfg)
		switch {
		case traceFields[name]:
			if ok {
				t.Errorf("field %s: a trace config got a warm key", name)
			}
		case warmFields[name]:
			if !ok || key == baseKey {
				t.Errorf("field %s is read by warm-up but does not change WarmKey", name)
			}
		case timedFields[name]:
			if !ok || key != baseKey {
				t.Errorf("field %s is timed-only but changes WarmKey:\n%s\n%s", name, baseKey, key)
			}
		default:
			t.Errorf("field %s is unclassified: add it to warmFields (and WarmKey) or timedFields", name)
		}
	}
	replay := base
	replay.Benchmarks = []string{config.TracePrefix + "x.dct"}
	if _, ok := WarmKey(replay); ok {
		t.Error(`a "trace:" config got a warm key`)
	}
}

// warmVariants are the timed-only variations one warm group serves:
// every writeback, remapping, tag-cache and probe option and every
// registered scheduling policy, under each design.
func warmVariants(t *testing.T, org dcache.Org) []config.Config {
	t.Helper()
	base := config.Test()
	base.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	base.Org = org
	mods := []func(*config.Config){
		func(*config.Config) {},
		func(c *config.Config) { c.LeeWriteback = true },
		func(c *config.Config) { c.XORRemap = true },
		func(c *config.Config) { c.BEARProbe = true },
	}
	if org == dcache.SetAssoc {
		mods = append(mods, func(c *config.Config) { c.TagCacheKB = 64 })
	}
	for _, name := range sched.Names() {
		alg, err := core.ParseAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, func(c *config.Config) { c.Algorithm = alg })
	}
	var cfgs []config.Config
	for _, d := range []core.Design{core.CD, core.ROD, core.DCA} {
		for _, mod := range mods {
			cfg := base
			cfg.Design = d
			mod(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// TestWarmGroupMatchesIndependent: one warm-up shared, in turn, by every
// timed-only variant of a machine gives each variant exactly the Result
// of its own independent Run — the journal rollback restores the tag
// store, and the copies keep the L1/L2, MAP-I and generator state intact.
// The second organization's warm-up reuses the first one's spent store.
func TestWarmGroupMatchesIndependent(t *testing.T) {
	var spare *Warmed // the direct-mapped group reuses the set-associative store
	for _, org := range []dcache.Org{dcache.SetAssoc, dcache.DirectMapped} {
		cfgs := warmVariants(t, org)
		w, err := Warm(cfgs[0], spare)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			keep := i < len(cfgs)-1
			got, err := w.Run(cfg, keep)
			if err != nil {
				t.Fatalf("%v variant %d: %v", org, i, err)
			}
			if keep && w.Spent() {
				t.Fatalf("%v variant %d: warm state spent after a kept run", org, i)
			}
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v variant %d (%v %v): grouped result diverges from an independent run\n%+v\nvs\n%+v",
					org, i, cfg.Design, cfg.Algorithm, got, want)
			}
		}
		if !w.Spent() {
			t.Fatalf("%v: the last run without keep did not consume the warm state", org)
		}
		spare = w
	}
}

// TestWarmedRunRejectsMisuse: a warm state serves only valid configs
// with its key, never after it was consumed, and never keeps for a trace
// config; its memory is reused only once it is spent.
func TestWarmedRunRejectsMisuse(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "lbm"}
	w, err := Warm(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Warm(cfg, w); err == nil {
		t.Fatal("a warm-up reused the memory of a state still in use")
	}
	other := cfg
	other.Seed++
	if _, err := w.Run(other, true); err == nil {
		t.Fatal("a warm state ran a config with another warm key")
	}
	invalid := cfg
	invalid.TagCacheKB = -1 // timed-only, so the warm key still matches
	if _, err := w.Run(invalid, true); err == nil {
		t.Fatal("a warm state ran a config that fails validation")
	}
	if w.Spent() {
		t.Fatal("a rejected run consumed the warm state")
	}
	if _, err := w.Run(cfg, false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(cfg, false); err == nil {
		t.Fatal("a consumed warm state ran again")
	}

	rec := cfg
	rec.RecordPath = t.TempDir() + "/rec.dct"
	w, err = Warm(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(rec, true); err == nil {
		t.Fatal("a recording config kept its warm state for sharing")
	}
	if _, err := w.Run(rec, false); err != nil {
		t.Fatal(err)
	}
}

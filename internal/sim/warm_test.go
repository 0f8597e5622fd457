package sim

import (
	"reflect"
	"testing"

	"dcasim/internal/config"
	"dcasim/internal/core"
	"dcasim/internal/dcache"
)

// warmFields are the Config fields the functional warm-up reads. WarmKey
// must change when any of them changes.
var warmFields = map[string]bool{
	"Benchmarks": true, "Seed": true, "WSScale": true, "WarmMemops": true,
	"CacheSizeBytes": true, "Channels": true, "Ranks": true, "Banks": true,
	"UseMAPI": true, "L1Bytes": true, "L1Ways": true, "L2Bytes": true, "L2Ways": true,
}

// timedFields are the Config fields only the timed region reads. WarmKey
// must not change when they do.
var timedFields = map[string]bool{
	"Design": true, "XORRemap": true, "LeeWriteback": true, "TagCacheKB": true,
	"BEARProbe": true, "Algorithm": true, "FlushFactor": true, "Timing": true,
	"MainMem": true, "CPU": true, "L2HitLat": true, "InstrPerCore": true,
}

// perContentsFields are read by warm-up, yet WarmKey must not change
// when they do. Org selects which DRAM-cache contents a run uses, and
// nothing in those contents feeds back into the generators, L1s or L2:
// one warm-up drives the contents of every organization a group needs
// with the same calls, and Warmed.Run serves each config its own.
var perContentsFields = map[string]bool{"Org": true}

// perturb changes v, a settable value, to a different value of its type:
// every settable leaf of a struct.
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
// key, and perturbing a timed or per-contents field leaves it alone. A
// newly added field fails until it is classified (and, if warm-up reads
// it, added to WarmKey).
func TestWarmKeyCoversWarmFields(t *testing.T) {
	base := config.Test()
	base.Benchmarks = []string{"mcf", "lbm", "libquantum", "omnetpp"}
	baseKey := WarmKey(base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := base
		cfg.Benchmarks = append([]string(nil), base.Benchmarks...)
		if !perturb(reflect.ValueOf(&cfg).Elem().Field(i)) {
			t.Errorf("field %s: cannot perturb its kind; extend perturb", name)
			continue
		}
		key := WarmKey(cfg)
		switch {
		case warmFields[name]:
			if key == baseKey {
				t.Errorf("field %s is read by warm-up but does not change WarmKey", name)
			}
		case timedFields[name], perContentsFields[name]:
			if key != baseKey {
				t.Errorf("field %s is timed-only or served per contents but changes WarmKey:\n%s\n%s", name, baseKey, key)
			}
		default:
			t.Errorf("field %s is unclassified: add it to warmFields (and WarmKey) or timedFields", name)
		}
	}
}

// warmVariants are the timed-only variations one warm group serves:
// every writeback, remapping, tag-cache and probe option and every
// scheduling policy, under each design.
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
	for _, alg := range fuzzAlgorithms {
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

// bothOrgs warms the contents of both organizations.
var bothOrgs = []dcache.Org{dcache.SetAssoc, dcache.DirectMapped}

// TestWarmGroupMatchesIndependent: one warm-up shared, in turn, by every
// timed-only variant of a machine under both organizations, interleaved,
// gives each variant exactly the Result of its own independent Run — the
// journal rollback restores the tag store of the variant's organization,
// the other organization's contents stay untouched, and the copies keep
// the L1/L2, MAP-I and generator state intact. A direct-mapped warm-up
// over the spent state, which reuses its memory, matches too.
func TestWarmGroupMatchesIndependent(t *testing.T) {
	sa, dm := warmVariants(t, dcache.SetAssoc), warmVariants(t, dcache.DirectMapped)
	var cfgs []config.Config
	for i := 0; i < len(sa) || i < len(dm); i++ {
		if i < len(sa) {
			cfgs = append(cfgs, sa[i])
		}
		if i < len(dm) {
			cfgs = append(cfgs, dm[i])
		}
	}
	w, err := Warm(cfgs[0], bothOrgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(w *Warmed, i int, cfg config.Config, keep bool) {
		t.Helper()
		got, err := w.Run(cfg, keep)
		if err != nil {
			t.Fatalf("variant %d (%v): %v", i, cfg.Org, err)
		}
		if keep && w.Spent() {
			t.Fatalf("variant %d (%v): warm state spent after a kept run", i, cfg.Org)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("variant %d (%v %v %v): grouped result diverges from an independent run\n%+v\nvs\n%+v",
				i, cfg.Org, cfg.Design, cfg.Algorithm, got, want)
		}
	}
	for i, cfg := range cfgs {
		check(w, i, cfg, i < len(cfgs)-1)
	}
	if !w.Spent() {
		t.Fatal("the last run without keep did not consume the warm state")
	}
	again, err := Warm(dm[0], []dcache.Org{dcache.DirectMapped}, w)
	if err != nil {
		t.Fatal(err)
	}
	check(again, 0, dm[0], false)
}

// TestWarmedRunRejectsMisuse: a warm state serves only valid configs
// with its key and an organization it was warmed for, and never after it
// was consumed; its memory is reused only once it is spent.
func TestWarmedRunRejectsMisuse(t *testing.T) {
	cfg := config.Test()
	cfg.Benchmarks = []string{"mcf", "lbm"}
	if _, err := Warm(cfg, nil, nil); err == nil {
		t.Fatal("a warm-up with no organization succeeded")
	}
	w, err := Warm(cfg, []dcache.Org{cfg.Org}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Warm(cfg, []dcache.Org{cfg.Org}, w); err == nil {
		t.Fatal("a warm-up reused the memory of a state still in use")
	}
	other := cfg
	other.Seed++
	if _, err := w.Run(other, true); err == nil {
		t.Fatal("a warm state ran a config with another warm key")
	}
	dm := cfg
	dm.Org = dcache.DirectMapped // same warm key, but no contents for it
	if _, err := w.Run(dm, true); err == nil {
		t.Fatal("a warm state ran a config of an organization it was not warmed for")
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
}

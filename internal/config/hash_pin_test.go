package config

import "testing"

// presetHashes are the content addresses of the three preset
// configurations under schema 3. These hashes key the persistent result
// cache: a change here invalidates every cached result, so it must only
// ever happen together with a deliberate SchemaVersion bump (see json.go).
var presetHashes = map[string]string{
	"paper": "ac5f9c3c99be4e2d200283ef748ced374463e1fc058fa07322fe631d6c3fe31e",
	"bench": "1d559e0f1b539d3c1f1ada004b7ab2854e8963ce9212f7c0340f306a2875256b",
	"test":  "4de9c12e73a53fc6f171f0efb6a282d14b8be25d288bfa9509363d702c883a37",
}

// TestPresetHashStability pins the hashes of the presets as built by
// their constructors; TestHashStability pins the same values reached by
// name through ParsePreset.
func TestPresetHashStability(t *testing.T) {
	for name, cfg := range map[string]Config{
		"paper": Paper(),
		"bench": Bench(),
		"test":  Test(),
	} {
		if got := cfg.Hash(); got != presetHashes[name] {
			t.Errorf("%s preset hash changed: got %s want %s\n"+
				"(cache-invalidating change — requires a SchemaVersion bump and this pin updated with it)",
				name, got, presetHashes[name])
		}
	}
}

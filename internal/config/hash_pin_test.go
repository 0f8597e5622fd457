package config

import "testing"

// presetHashes are the content addresses of the three preset
// configurations under schema 2. These hashes key the persistent result
// cache: a change here invalidates every cached result, so it must only
// ever happen together with a deliberate SchemaVersion bump (see json.go).
var presetHashes = map[string]string{
	"paper": "90ddcaf959157722d0654d306e992f02edc83bf64890053e78af9d702fc4e936",
	"bench": "924e6741c71d8a50c88ea38f92f7df812ad5634e23949881e5f3a7030be65dfa",
	"test":  "550bb584c243776bc1285e225295389b136cceeb26101a9f89f1091b551c62c8",
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

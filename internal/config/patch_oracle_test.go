package config_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"dcasim/internal/config"
)

// oraclePatch is the JSON-merge implementation of Config.Patch that the
// strict decode into a copy replaced, kept as FuzzPatch's oracle. Each
// patch round-trips the whole config: encode it canonically, merge the
// patch into the decoded object, and decode the result into a zero
// Config. Against patches whose keys are spelled as the fields are and
// that carry no null outside Ctrl, the two must agree exactly; outside
// that domain the oracle is known to drop case-variant keys and to zero
// fields set to null.
func oraclePatch(c config.Config, patches ...json.RawMessage) (config.Config, error) {
	out := c
	for _, p := range patches {
		if len(p) == 0 {
			continue
		}
		var pm map[string]interface{}
		dec := json.NewDecoder(bytes.NewReader(p))
		dec.UseNumber()
		if err := dec.Decode(&pm); err != nil {
			return config.Config{}, fmt.Errorf("config: decode patch %s: %w", p, err)
		}
		ctrlPatch, hasCtrl := pm["Ctrl"]
		delete(pm, "Ctrl")
		var err error
		if out, err = applyPatchMap(out, pm); err != nil {
			return config.Config{}, err
		}
		if !hasCtrl {
			continue
		}
		if ctrlPatch == nil {
			out.Ctrl = nil
			continue
		}
		if out.Ctrl == nil {
			eff := out.CtrlConfig()
			out.Ctrl = &eff
		}
		if out, err = applyPatchMap(out, map[string]interface{}{"Ctrl": ctrlPatch}); err != nil {
			return config.Config{}, err
		}
	}
	return out, nil
}

// applyPatchMap deep-merges one decoded patch object onto the config's
// canonical JSON and strictly re-decodes the result.
func applyPatchMap(c config.Config, pm map[string]interface{}) (config.Config, error) {
	if len(pm) == 0 {
		return c, nil
	}
	base, err := c.Canonical()
	if err != nil {
		return config.Config{}, fmt.Errorf("config: encode base: %w", err)
	}
	var m map[string]interface{}
	baseDec := json.NewDecoder(bytes.NewReader(base))
	baseDec.UseNumber()
	if err := baseDec.Decode(&m); err != nil {
		return config.Config{}, fmt.Errorf("config: decode base: %w", err)
	}
	mergeJSON(m, pm)
	merged, err := json.Marshal(m)
	if err != nil {
		return config.Config{}, fmt.Errorf("config: encode merged: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(merged))
	dec.DisallowUnknownFields()
	var out config.Config
	if err := dec.Decode(&out); err != nil {
		return config.Config{}, fmt.Errorf("config: apply patch: %w", err)
	}
	return out, nil
}

// mergeJSON merges src into dst recursively: object-into-object merges
// per key, anything else replaces the destination value. Keys are
// visited in sorted order.
func mergeJSON(dst, src map[string]interface{}) {
	keys := make([]string, 0, len(src))
	for k := range src {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sv := src[k]
		if sm, ok := sv.(map[string]interface{}); ok {
			if dm, ok := dst[k].(map[string]interface{}); ok {
				mergeJSON(dm, sm)
				continue
			}
		}
		dst[k] = sv
	}
}

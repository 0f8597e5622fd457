package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// SchemaVersion identifies the serialized Config layout. It is folded
// into Config.Hash(), so bumping it invalidates every content-addressed
// cache entry at once: bump whenever a Config field is added, removed,
// renamed, or changes meaning — anything that would make two different
// simulations hash alike, or one simulation hash differently than before
// for no behavioural reason. A new field also needs its line in the
// canonical encoder (canonical.go); TestCanonicalMatchesMarshal fails
// until it has one.
const SchemaVersion = 3

// envelope is the on-disk form of Save/Load: the schema version guards
// against silently decoding a file written by an incompatible layout.
type envelope struct {
	Schema int    `json:"schema"`
	Config Config `json:"config"`
}

// Save writes the configuration to path as indented JSON inside a
// schema-versioned envelope.
func Save(path string, c Config) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(envelope{Schema: SchemaVersion, Config: c}); err != nil {
		return fmt.Errorf("config: encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// Load reads a configuration written by Save. Unknown fields and schema
// mismatches are errors: a config file drives cache keys, so a typoed
// field silently decoding to the default would poison every downstream
// result.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return Config{}, fmt.Errorf("config: decode %s: %w", path, err)
	}
	// Reject trailing content: a second concatenated document (say, a
	// duplicated paste) would otherwise be silently ignored, and edits
	// made to it would never reach the run.
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("config: %s: trailing data after the configuration document", path)
	}
	if env.Schema != SchemaVersion {
		return Config{}, fmt.Errorf("config: %s has schema %d, this build expects %d", path, env.Schema, SchemaVersion)
	}
	return env.Config, nil
}

// ParsePreset returns the named preset configuration ("paper", "bench",
// or "test") — the scale switch every command used to hand-roll.
func ParsePreset(s string) (Config, error) {
	switch s {
	case "paper":
		return Paper(), nil
	case "bench":
		return Bench(), nil
	case "test":
		return Test(), nil
	}
	return Config{}, fmt.Errorf("config: unknown scale %q (want paper, bench, or test)", s)
}

// Patch overlays partial configurations, given as JSON objects, onto c,
// applying them in order: it parses every patch (ParsePatch), so one
// that does not parse fails the call before any applies, then applies
// the parsed patches (Apply). Each patch decodes strictly into a copy of
// the config, so keys match fields as they do in Load
// (case-insensitively), objects merge into structs (so
// {"Timing":{"TWTR":2500}} changes one timing parameter and keeps the
// rest), and arrays and scalars replace. Unknown fields anywhere in a
// patch are errors, and so is a null anywhere: decoding null into a
// field would silently keep or zero it. A key repeated within one patch
// takes its last value. The result shares no memory with c.
func (c Config) Patch(patches ...json.RawMessage) (Config, error) {
	var buf [4]ParsedPatch
	parsed := buf[:0]
	for _, p := range patches {
		pp, err := ParsePatch(p)
		if err != nil {
			return Config{}, err
		}
		parsed = append(parsed, pp)
	}
	return c.Apply(parsed...)
}

// ParsedPatch is one patch parsed by ParsePatch, ready to Apply to any
// number of configs, concurrently too. The zero value is the empty
// patch.
type ParsedPatch struct {
	fields []byte // the patch re-encoded; nil if it names no field
}

// ParsePatch parses one patch for Apply: numbers stay exact, a repeated
// key keeps its last value, and a null is an error. An empty patch
// parses to the empty ParsedPatch.
func ParsePatch(p json.RawMessage) (ParsedPatch, error) {
	if len(p) == 0 {
		return ParsedPatch{}, nil
	}
	var pm map[string]interface{}
	dec := json.NewDecoder(bytes.NewReader(p))
	dec.UseNumber() // keep int64 fields (times, budgets, seeds) exact
	if err := dec.Decode(&pm); err != nil {
		return ParsedPatch{}, fmt.Errorf("config: decode patch %s: %w", p, err)
	}
	if len(pm) == 0 {
		return ParsedPatch{}, nil
	}
	for _, k := range sortedKeys(pm) {
		if err := checkNulls(k, pm[k]); err != nil {
			return ParsedPatch{}, err
		}
	}
	enc, err := json.Marshal(pm)
	if err != nil {
		return ParsedPatch{}, fmt.Errorf("config: encode patch: %w", err)
	}
	return ParsedPatch{fields: enc}, nil
}

// Apply overlays parsed patches onto c in order, by the rules Patch
// documents. The result shares no memory with c or with the patches.
func (c Config) Apply(patches ...ParsedPatch) (Config, error) {
	out := c
	out.Benchmarks = slices.Clone(c.Benchmarks)
	for _, pp := range patches {
		if pp.fields == nil {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(pp.fields))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&out); err != nil {
			return Config{}, fmt.Errorf("config: apply patch: %w", err)
		}
	}
	return out, nil
}

// checkNulls reports the first null at or below path, visiting object
// keys in sorted order.
func checkNulls(path string, v interface{}) error {
	switch v := v.(type) {
	case nil:
		return fmt.Errorf("config: patch sets %s to null", path)
	case map[string]interface{}:
		for _, k := range sortedKeys(v) {
			if err := checkNulls(path+"."+k, v[k]); err != nil {
				return err
			}
		}
	case []interface{}:
		for i, e := range v {
			if err := checkNulls(fmt.Sprintf("%s[%d]", path, i), e); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]interface{}) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

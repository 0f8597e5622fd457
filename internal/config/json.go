package config

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"dcasim/internal/core"
)

// SchemaVersion identifies the serialized Config layout. It is folded
// into Config.Hash(), so bumping it invalidates every content-addressed
// cache entry at once: bump whenever a Config field is added, removed,
// renamed, or changes meaning — anything that would make two different
// simulations hash alike, or one simulation hash differently than before
// for no behavioural reason.
const SchemaVersion = 1

// envelope is the on-disk form of Save/Load: the schema version guards
// against silently decoding a file written by an incompatible layout.
type envelope struct {
	Schema int    `json:"schema"`
	Config Config `json:"config"`
}

// Canonical returns the canonical JSON encoding of the configuration:
// struct-declaration field order, string enum names, times in integer
// picoseconds, no insignificant whitespace. Two configs are behaviourally
// identical under this schema iff their canonical encodings are equal,
// which is what makes Hash usable as a cache key.
func (c Config) Canonical() ([]byte, error) {
	return json.Marshal(c)
}

// Hash returns the content address of the configuration: a hex SHA-256
// over the schema version and the canonical encoding. It panics on a
// non-marshalable config (only possible with out-of-range enum values),
// matching the many fmt/stats helpers that treat impossible inputs as
// programmer errors.
func (c Config) Hash() string {
	enc, err := c.Canonical()
	if err != nil {
		panic(fmt.Sprintf("config: hashing unmarshalable config: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "dcasim-config-v%d:", SchemaVersion)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
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
// applying them in order. Each patch decodes strictly into a copy of the
// config, so keys match fields as they do in Load (case-insensitively),
// objects merge into structs and maps (so {"Timing":{"TWTR":2500}}
// changes one timing parameter and keeps the rest), and arrays and
// scalars replace. Unknown fields anywhere in a patch are errors, and so
// is a null anywhere but as the value of Ctrl: decoding null into a
// field would silently keep or zero it. A key repeated within one patch
// takes its last value. The result shares no memory with c.
//
// A patch touching Ctrl while Ctrl is nil first materializes the
// effective controller parameters (CtrlConfig(), i.e. the Table II
// defaults for the design selected by the same patch): a single-knob
// override like {"Ctrl":{"FlushFactor":2}} edits the machine the run
// would actually use instead of producing a zeroed controller config.
// An explicit "Ctrl": null restores the defaults.
func (c Config) Patch(patches ...json.RawMessage) (Config, error) {
	out := c
	out.Benchmarks = slices.Clone(c.Benchmarks)
	out.AlgParams = maps.Clone(c.AlgParams)
	if c.Ctrl != nil {
		out.Ctrl = cloneCtrl(*c.Ctrl)
	}
	for _, p := range patches {
		if len(p) == 0 {
			continue
		}
		pm, ctrls, err := decodePatch(p)
		if err != nil {
			return Config{}, err
		}
		if err := decodeInto(&out, pm); err != nil {
			return Config{}, err
		}
		for _, v := range ctrls {
			if v == nil {
				out.Ctrl = nil
				continue
			}
			if out.Ctrl == nil {
				out.Ctrl = cloneCtrl(out.CtrlConfig())
			}
			if err := decodeInto(out.Ctrl, v); err != nil {
				return Config{}, fmt.Errorf("%w (in Ctrl)", err)
			}
		}
	}
	return out, nil
}

// cloneCtrl returns a copy of cc that shares no map with it: CtrlConfig
// hands back the top-level AlgParams map itself.
func cloneCtrl(cc core.Config) *core.Config {
	cc.AlgParams = maps.Clone(cc.AlgParams)
	return &cc
}

// decodePatch normalizes one patch object: numbers stay exact, a
// repeated key keeps its last value, and a null is an error except as
// the value of Ctrl. It returns the patch without its Ctrl keys, and
// the values of those keys (any spelling) in the order decoding would
// meet them.
func decodePatch(p json.RawMessage) (map[string]interface{}, []interface{}, error) {
	var pm map[string]interface{}
	dec := json.NewDecoder(bytes.NewReader(p))
	dec.UseNumber() // keep int64 fields (times, budgets, seeds) exact
	if err := dec.Decode(&pm); err != nil {
		return nil, nil, fmt.Errorf("config: decode patch %s: %w", p, err)
	}
	var ctrls []interface{}
	for _, k := range sortedKeys(pm) {
		v := pm[k]
		if strings.EqualFold(k, "Ctrl") {
			ctrls = append(ctrls, v)
			delete(pm, k)
			if v == nil {
				continue
			}
		}
		if err := checkNulls(k, v); err != nil {
			return nil, nil, err
		}
	}
	return pm, ctrls, nil
}

// checkNulls reports the first null at or below path, visiting object
// keys in sorted order.
func checkNulls(path string, v interface{}) error {
	switch v := v.(type) {
	case nil:
		return fmt.Errorf("config: patch sets %s to null; only Ctrl accepts null", path)
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

// decodeInto strictly decodes a normalized patch value into dst, which
// keeps every field the value does not name.
func decodeInto(dst, v interface{}) error {
	enc, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("config: encode patch: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(enc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("config: apply patch: %w", err)
	}
	return nil
}

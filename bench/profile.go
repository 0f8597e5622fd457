package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is a decoded CPU profile: one entry per pprof sample, with the
// stack resolved to function names. Only the parts the benchmark folds
// are kept, so the decoder needs nothing beyond the standard library.
type profile struct {
	samples []profSample
}

type profSample struct {
	count  int64             // the sample's first value (samples/count for CPU profiles)
	funcs  []string          // function names, leaf first, inlined frames expanded
	labels map[string]string // pprof string labels, nil when none
}

var errProfile = errors.New("profile: malformed protobuf")

// parseProfile decodes a pprof profile.proto message, gzipped or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawLabel struct{ key, str int64 }
	type rawSample struct {
		locs   []uint64
		values []uint64
		labels []rawLabel
	}
	var (
		strs     []string
		samples  []rawSample
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendPacked(s.locs, v, b)
				case 2:
					s.values, err = appendPacked(s.values, v, b)
				case 3:
					var l rawLabel
					err = fields(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							l.key = int64(v)
						case 2:
							l.str = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, l)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{samples: make([]profSample, 0, len(samples))}
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, fmt.Errorf("profile: sample without values")
		}
		ps := profSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name, err := str(funcName[fn])
				if err != nil {
					return nil, err
				}
				ps.funcs = append(ps.funcs, name)
			}
		}
		for _, l := range s.labels {
			k, err := str(l.key)
			if err != nil {
				return nil, err
			}
			v, err := str(l.str)
			if err != nil {
				return nil, err
			}
			if ps.labels == nil {
				ps.labels = map[string]string{}
			}
			ps.labels[k] = v
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// fields calls fn for every field of a protobuf message: varint and
// fixed-width fields arrive in v, length-delimited fields in b (non-nil).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProfile
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProfile
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProfile
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProfile
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProfile
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProfile
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either
// packed (b) or as a single element (v).
func appendPacked(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// labelled returns the samples carrying label key=value.
func (p *profile) labelled(key, value string) *profile {
	out := &profile{}
	for _, s := range p.samples {
		if s.labels[key] == value {
			out.samples = append(out.samples, s)
		}
	}
	return out
}

func (p *profile) total() int64 {
	var n int64
	for _, s := range p.samples {
		n += s.count
	}
	return n
}

// onStackShare is the fraction of samples with a frame that matches one
// of the given functions (closures and methods nested under a name
// count as that name) anywhere on the stack.
func (p *profile) onStackShare(names []string) float64 {
	total := p.total()
	if total == 0 {
		return 0
	}
	var hit int64
	for _, s := range p.samples {
		for _, fn := range s.funcs {
			if matchesFunc(fn, names) {
				hit += s.count
				break
			}
		}
	}
	return float64(hit) / float64(total)
}

func matchesFunc(fn string, names []string) bool {
	for _, name := range names {
		if fn == name || strings.HasPrefix(fn, name+".") {
			return true
		}
	}
	return false
}

// flatShares folds each sample's self time onto the module that owns it
// and returns every module's fraction of all samples. Standard-library
// helpers (sorting, formatting, reflection, text) are charged to their
// first caller outside them, so JSON's key sorting counts as codec and a
// table's number formatting as exp. Modules without samples read 0.
func (p *profile) flatShares() map[string]float64 {
	out := make(map[string]float64, len(hostModules)+1)
	for _, m := range hostModules {
		out[m.name] = 0
	}
	out["other"] = 0
	total := p.total()
	if total == 0 {
		return out
	}
	for _, s := range p.samples {
		mod := "other"
		for _, fn := range s.funcs {
			if pkg := funcPackage(fn); !isHelper(pkg) {
				mod = moduleOf(pkg)
				break
			}
		}
		out[mod] += float64(s.count) / float64(total)
	}
	return out
}

// funcPackage extracts the import path from a symbol name such as
// "dcasim/internal/cache.(*Cache).Access" or "encoding/json.Unmarshal".
// Unqualified symbols (aeshashbody, gcWriteBarrier) are the runtime's
// assembly routines.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return "runtime"
}

var helperPkgs = []string{"sort", "slices", "maps", "math", "strings", "bytes", "strconv", "unicode", "reflect", "fmt", "errors"}

func isHelper(pkg string) bool {
	for _, h := range helperPkgs {
		if pkg == h || strings.HasPrefix(pkg, h+"/") {
			return true
		}
	}
	return false
}

// hostModules maps import paths onto the layers the host-time breakdown
// reports, first match wins. A path ending in "/..." covers its
// subpackages too, as in go command patterns.
var hostModules = []struct {
	name string
	pkgs []string
}{
	{"workload", []string{"dcasim/internal/workload", "dcasim/internal/rng"}},
	{"cache", []string{"dcasim/internal/cache"}},
	{"cpu", []string{"dcasim/internal/cpu"}},
	{"dcache", []string{"dcasim/internal/dcache"}},
	{"mempred", []string{"dcasim/internal/mempred"}},
	{"tagcache", []string{"dcasim/internal/tagcache"}},
	{"core", []string{"dcasim/internal/core", "dcasim/internal/sched/..."}},
	{"dram", []string{"dcasim/internal/dram"}},
	{"addrmap", []string{"dcasim/internal/addrmap"}},
	{"event", []string{"dcasim/internal/event"}},
	{"mainmem", []string{"dcasim/internal/mainmem"}},
	{"sim", []string{"dcasim/internal/sim", "dcasim/internal/simtime", "dcasim/internal/trace"}},
	{"exp", []string{"dcasim/internal/exp", "dcasim/internal/config", "dcasim/internal/stats", "dcasim"}},
	{"rescache", []string{"dcasim/internal/rescache", "dcasim/internal/cachefs"}},
	{"codec", []string{"encoding/...", "crypto/...", "hash/..."}},
	{"syscall", []string{"os/...", "syscall", "internal/poll", "internal/syscall/...", "io/...", "path/..."}},
	{"runtime", []string{"runtime/...", "internal/...", "sync/..."}},
}

func moduleOf(pkg string) string {
	for _, m := range hostModules {
		for _, p := range m.pkgs {
			if base, ok := strings.CutSuffix(p, "/..."); ok && (pkg == base || strings.HasPrefix(pkg, base+"/")) || pkg == p {
				return m.name
			}
		}
	}
	return "other"
}

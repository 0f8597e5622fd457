package config

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"dcasim/internal/core"
	"dcasim/internal/dcache"
)

// Canonical returns the canonical JSON encoding of the configuration:
// struct-declaration field order, string enum names, times in integer
// picoseconds, no insignificant whitespace. Two configs whose encodings
// are equal simulate identically, which is what makes Hash usable as a
// cache key. The converse does not hold: a field that has no effect on
// a run, such as FlushFactor under CD, still changes the encoding, which
// costs a cache miss but never a wrong result.
//
// The bytes are exactly those encoding/json's Marshal writes for a
// Config (TestCanonicalMatchesMarshal and FuzzCanonical hold the encoder
// to it), and Canonical fails where Marshal fails: on a Design or
// Algorithm outside the paper's three, an unknown Org, and a NaN or
// infinite float.
func (c Config) Canonical() ([]byte, error) {
	var err error
	b := c.appendCanonical(nil, &err)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// hashPrefix is hashed ahead of the canonical encoding.
var hashPrefix = fmt.Sprintf("dcasim-config-v%d:", SchemaVersion)

// TryHash returns the content address of the configuration: a hex
// SHA-256 over "dcasim-config-v<SchemaVersion>:" and the canonical
// encoding. It fails where Canonical fails; a config that passes
// Validate always hashes.
func (c Config) TryHash() (string, error) {
	var buf [2048]byte
	var err error
	b := c.appendCanonical(append(buf[:0], hashPrefix...), &err)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:]), nil
}

// Hash is TryHash for a config known to encode, such as one that passed
// Validate. It panics on a config TryHash rejects.
func (c Config) Hash() string {
	h, err := c.TryHash()
	if err != nil {
		panic(fmt.Sprintf("config: hashing unencodable config: %v", err))
	}
	return h
}

// appendCanonical appends the canonical encoding of c to b and records
// the first failure in *err. Field names are the Go field names, as
// Config declares no json tags.
func (c *Config) appendCanonical(b []byte, err *error) []byte {
	e := encoder{b: b, err: err}
	e = e.raw(`{"Benchmarks":`).strings(c.Benchmarks)
	e = e.raw(`,"Design":`).design(c.Design)
	e = e.raw(`,"Org":`).org(c.Org)
	e = e.raw(`,"XORRemap":`).bool(c.XORRemap)
	e = e.raw(`,"UseMAPI":`).bool(c.UseMAPI)
	e = e.raw(`,"LeeWriteback":`).bool(c.LeeWriteback)
	e = e.raw(`,"TagCacheKB":`).int(int64(c.TagCacheKB))
	e = e.raw(`,"BEARProbe":`).bool(c.BEARProbe)
	e = e.raw(`,"Algorithm":`).algorithm(c.Algorithm)
	e = e.raw(`,"FlushFactor":`).uint(uint64(c.FlushFactor))
	e = e.raw(`,"CacheSizeBytes":`).int(c.CacheSizeBytes)
	e = e.raw(`,"Channels":`).int(int64(c.Channels))
	e = e.raw(`,"Ranks":`).int(int64(c.Ranks))
	e = e.raw(`,"Banks":`).int(int64(c.Banks))
	t := &c.Timing
	e = e.raw(`,"Timing":{"TRCD":`).int(int64(t.TRCD))
	e = e.raw(`,"TCAS":`).int(int64(t.TCAS))
	e = e.raw(`,"TRP":`).int(int64(t.TRP))
	e = e.raw(`,"TRAS":`).int(int64(t.TRAS))
	e = e.raw(`,"TWTR":`).int(int64(t.TWTR))
	e = e.raw(`,"TRTP":`).int(int64(t.TRTP))
	e = e.raw(`,"TRTW":`).int(int64(t.TRTW))
	e = e.raw(`,"TWR":`).int(int64(t.TWR))
	e = e.raw(`,"TBurst":`).int(int64(t.TBurst))
	e = e.raw(`},"MainMem":{"Latency":`).int(int64(c.MainMem.Latency))
	e = e.raw(`,"BlockTime":`).int(int64(c.MainMem.BlockTime))
	e = e.raw(`},"CPU":{"FreqGHz":`).float("CPU.FreqGHz", c.CPU.FreqGHz)
	e = e.raw(`,"Width":`).int(int64(c.CPU.Width))
	e = e.raw(`,"ROB":`).int(int64(c.CPU.ROB))
	e = e.raw(`,"MSHRs":`).int(int64(c.CPU.MSHRs))
	e = e.raw(`},"L1Bytes":`).int(c.L1Bytes)
	e = e.raw(`,"L1Ways":`).int(int64(c.L1Ways))
	e = e.raw(`,"L2Bytes":`).int(c.L2Bytes)
	e = e.raw(`,"L2Ways":`).int(int64(c.L2Ways))
	e = e.raw(`,"L2HitLat":`).int(int64(c.L2HitLat))
	e = e.raw(`,"InstrPerCore":`).int(c.InstrPerCore)
	e = e.raw(`,"WarmMemops":`).int(c.WarmMemops)
	e = e.raw(`,"WSScale":`).float("WSScale", c.WSScale)
	e = e.raw(`,"Seed":`).uint(c.Seed)
	return e.raw(`}`).b
}

// encoder appends JSON values to b and records the first failure in
// *err. Its methods take and return it by value, and the error lives
// outside it, so the buffer TryHash passes in stays on the stack.
type encoder struct {
	b   []byte
	err *error
}

func (e encoder) fail(path string, err error) encoder {
	if *e.err == nil {
		*e.err = fmt.Errorf("config: cannot encode %s: %w", path, err)
	}
	return e
}

func (e encoder) raw(s string) encoder {
	e.b = append(e.b, s...)
	return e
}

func (e encoder) int(v int64) encoder {
	e.b = strconv.AppendInt(e.b, v, 10)
	return e
}

func (e encoder) uint(v uint64) encoder {
	e.b = strconv.AppendUint(e.b, v, 10)
	return e
}

func (e encoder) bool(v bool) encoder {
	e.b = strconv.AppendBool(e.b, v)
	return e
}

// float writes f as encoding/json does: the shortest representation
// that round-trips, in exponent form below 1e-6 and from 1e21 with a
// one-digit negative exponent written unpadded (1e-7, not 1e-07).
func (e encoder) float(path string, f float64) encoder {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return e.fail(path, fmt.Errorf("unsupported value %v", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.b = b
	return e
}

// string writes s quoted and escaped as encoding/json does (since Go
// 1.22, which added the \b and \f forms): the short escapes for '"',
// '\\', \b, \f, \n, \r and \t, \u00XX for the other control characters
// and for '<', '>' and '&', a \u escape for the line and paragraph
// separators U+2028 and U+2029, and the escaped replacement character
// U+FFFD for each byte of invalid UTF-8.
func (e encoder) string(s string) encoder {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
	return e
}

// strings writes a string slice, null when nil.
func (e encoder) strings(ss []string) encoder {
	if ss == nil {
		return e.raw("null")
	}
	e = e.raw("[")
	for i, s := range ss {
		if i > 0 {
			e = e.raw(",")
		}
		e = e.string(s)
	}
	return e.raw("]")
}

// design writes the design's name.
func (e encoder) design(d core.Design) encoder {
	name := d.String()
	if _, err := core.ParseDesign(name); err != nil {
		return e.fail("Design", fmt.Errorf("unknown design %d", int(d)))
	}
	return e.string(name)
}

// algorithm writes the canonical name of a, the zero value as BLISS.
func (e encoder) algorithm(a core.Algorithm) encoder {
	name, err := core.ParseAlgorithm(string(a.Canonical()))
	if err != nil {
		return e.fail("Algorithm", err)
	}
	return e.string(string(name))
}

func (e encoder) org(o dcache.Org) encoder {
	switch o {
	case dcache.SetAssoc, dcache.DirectMapped:
		return e.string(o.String())
	default:
		return e.fail("Org", fmt.Errorf("unknown organization %d", int(o)))
	}
}

package rescache

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dcasim/internal/sim"
)

// fullResult returns a sim.Result for a run of the given number of
// cores in which every field and every element is set, each to a
// different nonzero value. It walks the type the way the codec does and
// fails on a kind the codec does not support, so a field added to
// sim.Result with a new kind extends the codec on purpose.
func fullResult(tb testing.TB, cores int) sim.Result {
	tb.Helper()
	var res sim.Result
	next := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.Int64:
			v.SetInt(int64(next) * 1_000_003)
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.123456789)
		case reflect.String:
			v.SetString(string(rune('a'+next%26)) + "bench")
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), cores, cores))
			for i := 0; i < cores; i++ {
				fill(v.Index(i), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		default:
			tb.Fatalf("sim.Result%s has kind %s, which the rescache codec does not encode; extend encodeValue and decodeValue", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&res).Elem(), "")
	return res
}

// TestCodecCoversResult: every field of a fully set sim.Result survives
// encode and decode, and the decoded value re-encodes to the same bytes.
func TestCodecCoversResult(t *testing.T) {
	want := fullResult(t, 4)
	payload, err := encodeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
	if again, _ := encodeResult(got); !bytes.Equal(again, payload) {
		t.Fatal("re-encoding a decoded payload changed its bytes")
	}
}

// TestSpecialFloatsRoundTrip: values JSON could not store — NaN, ±Inf —
// and -0 come back bit for bit, through the whole Put/Get path.
func TestSpecialFloatsRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.Float64frombits(0x7ff8_dead_beef_0001)}
	res := sampleResult()
	res.IPC = specials
	res.L2MissRate = math.NaN()
	key := "5bec1a1"
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("entry holding special floats missed")
	}
	for i, f := range specials {
		if math.Float64bits(got.IPC[i]) != math.Float64bits(f) {
			t.Errorf("IPC[%d] = %#x, want %#x", i, math.Float64bits(got.IPC[i]), math.Float64bits(f))
		}
	}
	if !math.IsNaN(got.L2MissRate) {
		t.Errorf("L2MissRate = %v, want NaN", got.L2MissRate)
	}
}

// TestEmptySlicesDecodeNil: a zero length decodes to a nil slice, so
// nil and empty inputs share one encoding.
func TestEmptySlicesDecodeNil(t *testing.T) {
	for _, in := range []sim.Result{{}, {Benchmarks: []string{}, IPC: []float64{}}} {
		payload, err := encodeResult(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Benchmarks != nil || got.IPC != nil || got.FinishNS != nil {
			t.Fatalf("empty slices decoded non-nil: %+v", got)
		}
	}
}

// TestCodecRejectsMalformed: an empty payload, a length beyond the
// remaining bytes and an unsupported kind are errors, not panics.
// TestCorruptEntryIsAMiss covers short and trailing payloads.
func TestCodecRejectsMalformed(t *testing.T) {
	for name, payload := range map[string][]byte{
		"empty":           {},
		"huge length":     {0xff, 0xff, 0xff, 0xff, 'x'},
		"length past end": {3, 0, 0, 0, 'm', 'c'},
	} {
		if _, err := decodeResult(payload); err == nil {
			t.Errorf("%s payload decoded without error", name)
		}
	}
	var m struct{ M map[string]int64 }
	if _, err := decodeValue([]byte{0, 0, 0, 0}, reflect.ValueOf(&m).Elem()); err == nil {
		t.Error("decoded a map field")
	}
	if _, err := encodeValue(nil, reflect.ValueOf(m)); err == nil {
		t.Error("encoded a map field")
	}
}

// TestLayoutTracksFields: the fingerprint input changes with a field's
// name, its kind, its position or a field added, and not with a named
// type that keeps the kind.
func TestLayoutTracksFields(t *testing.T) {
	type ns int64
	of := func(v interface{}) string { return string(layout(nil, reflect.TypeOf(v))) }
	base := of(struct{ A, B int64 }{})
	for name, v := range map[string]interface{}{
		"renamed": struct{ A, C int64 }{},
		"retyped": struct {
			A int64
			B float64
		}{},
		"reordered": struct{ B, A int64 }{},
		"added":     struct{ A, B, C int64 }{},
		"sliced":    struct{ A, B []int64 }{},
	} {
		if of(v) == base {
			t.Errorf("%s struct has the same layout %q", name, base)
		}
	}
	if named := of(struct{ A, B ns }{}); named != base {
		t.Errorf("a named int64 changed the layout: %q vs %q", named, base)
	}
}

// FuzzDecodeResult feeds arbitrary payloads straight to the decoder,
// past the checksum that guards it in Get. The decoder must never
// panic, must allocate no more than a small multiple of its input, and
// must accept only payloads that re-encode to exactly themselves.
func FuzzDecodeResult(f *testing.F) {
	for _, res := range []sim.Result{{}, sampleResult(), fullResult(f, 4)} {
		payload, err := encodeResult(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// A []string element takes 4 payload bytes and 16 in memory,
		// plus its bytes; the constant covers the decoded struct and
		// size-class rounding. Other goroutines of the fuzzing process
		// allocate now and then, so a measurement over the limit is
		// repeated before it fails.
		limit := 8*uint64(len(payload)) + 4096
		var res sim.Result
		var err error
		var got uint64
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err = decodeResult(payload)
			runtime.ReadMemStats(&after)
			if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
				break
			}
		}
		if got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(payload), got, limit)
		}
		if err != nil {
			return
		}
		again, err := encodeResult(res)
		if err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in %x\nout %x", payload, again)
		}
	})
}

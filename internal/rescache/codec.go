package rescache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"

	"dcasim/internal/sim"
)

// The payload codec writes a value's fields in declaration order,
// little-endian: an int64 (simtime.Time included) or a float64 (its
// math.Float64bits, so NaN, ±Inf and -0 round-trip bit for bit) takes 8
// bytes; a string or slice is a uint32 length and then its bytes or
// elements; a struct is its fields. The encoding of a value is unique,
// so a payload the decoder accepts re-encodes to exactly itself.

var (
	errShort    = errors.New("payload truncated")
	errTrailing = errors.New("trailing payload bytes")
)

// encodeResult returns the payload of res.
func encodeResult(res sim.Result) ([]byte, error) {
	return encodeValue(nil, reflect.ValueOf(res))
}

// decodeResult decodes a payload that must be exactly the encoding of
// one sim.Result. It fails, never panics, on anything else.
func decodeResult(payload []byte) (sim.Result, error) {
	var res sim.Result
	rest, err := decodeValue(payload, reflect.ValueOf(&res).Elem())
	if err == nil && len(rest) != 0 {
		err = errTrailing
	}
	return res, err
}

// layout appends t's type tree to b: field names and kinds, recursively,
// in declaration order. Its hash tells entries written for another
// shape of sim.Result apart.
func layout(b []byte, t reflect.Type) []byte {
	switch t.Kind() {
	case reflect.Struct:
		b = append(b, '{')
		for i := 0; i < t.NumField(); i++ {
			b = append(b, t.Field(i).Name...)
			b = layout(append(b, ' '), t.Field(i).Type)
			b = append(b, ';')
		}
		return append(b, '}')
	case reflect.Slice:
		return layout(append(b, "[]"...), t.Elem())
	}
	return append(b, t.Kind().String()...)
}

// encodeValue appends the encoding of v to b.
func encodeValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int())), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float())), nil
	case reflect.String, reflect.Slice:
		if uint64(v.Len()) > math.MaxUint32 {
			return nil, fmt.Errorf("%s of length %d overflows its uint32 length", v.Kind(), v.Len())
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(v.Len()))
		if v.Kind() == reflect.String {
			return append(b, v.String()...), nil
		}
		var err error
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = encodeValue(b, v.Index(i))
		}
		return b, err
	case reflect.Struct:
		var err error
		for i := 0; i < v.NumField() && err == nil; i++ {
			b, err = encodeValue(b, v.Field(i))
		}
		return b, err
	}
	return nil, fmt.Errorf("cannot encode kind %s", v.Kind())
}

// decodeValue decodes the start of b into v, which must be settable and
// zero, and returns the bytes after it. Every length is bounded by the
// bytes that remain, so a hostile payload cannot make it allocate more
// than a small multiple of its own size.
func decodeValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Int64, reflect.Float64:
		if len(b) < 8 {
			return nil, errShort
		}
		if x := binary.LittleEndian.Uint64(b); v.Kind() == reflect.Int64 {
			v.SetInt(int64(x))
		} else {
			v.SetFloat(math.Float64frombits(x))
		}
		return b[8:], nil
	case reflect.String:
		n, b, err := decodeLen(b, 1)
		if err == nil && n > 0 {
			v.SetString(string(b[:n]))
		}
		return b[n:], err
	case reflect.Slice:
		n, b, err := decodeLen(b, minSize(v.Type().Elem()))
		if err != nil || n == 0 {
			return b, err
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n && err == nil; i++ {
			b, err = decodeValue(b, v.Index(i))
		}
		return b, err
	case reflect.Struct:
		var err error
		for i := 0; i < v.NumField() && err == nil; i++ {
			b, err = decodeValue(b, v.Field(i))
		}
		return b, err
	}
	return nil, fmt.Errorf("cannot decode kind %s", v.Kind())
}

// decodeLen reads a uint32 length of elements that each take at least
// size bytes, and fails unless that many bytes remain after it.
func decodeLen(b []byte, size int) (int, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShort
	}
	n := binary.LittleEndian.Uint32(b)
	if b = b[4:]; uint64(n) > uint64(len(b)/max(size, 1)) {
		return 0, nil, errShort
	}
	return int(n), b, nil
}

// minSize is the fewest bytes a value of type t encodes to.
func minSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int64, reflect.Float64:
		return 8
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += minSize(t.Field(i).Type)
		}
		return n
	}
	return 4 // a string or slice length; other kinds fail to decode anyway
}

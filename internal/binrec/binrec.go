// Package binrec is the controller's binary record format: the primitives
// every journal and snapshot payload is built from, and the encoding of a
// tenant SFC (vswitch.SFC) in it.
//
// Integers are varints (encoding/binary): counts, tenant IDs and stage
// indices as uvarints, signed values zigzag-encoded. A float64 is its 8
// IEEE-754 bytes, little-endian, so it round-trips bit-exactly; a bool is
// one byte, 0 or 1; a string is a uvarint length and its bytes. Every
// count is a length prefix: the decoder checks it against the bytes that
// remain before it allocates, so a corrupt record cannot make it allocate
// more elements than the record has bytes.
//
// The decoder accepts exactly the bytes the encoder produces: a varint
// with redundant continuation bytes, a bool byte other than 0 or 1, or a
// field flagged present that holds its zero value is an error. Decoding
// and re-encoding any record it accepts therefore gives back the same
// bytes.
package binrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version is the format version. Every binary payload starts with it, so
// a later format can be told apart from this one.
const Version byte = 1

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v zigzag-encoded.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends f's 8 IEEE-754 bytes, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s as a uvarint length and its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

var errTruncated = errors.New("binrec: truncated record")

// Decoder reads fields off a record front to back. The first failure
// sticks: every later read returns a zero value, and Finish reports it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Finish returns the first decoding failure, or an error if any bytes are
// left undecoded.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("binrec: %d trailing bytes", len(d.b))
	}
	return d.err
}

// Fail records err as the decoding failure, unless one is already set.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.b = nil
	}
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if len(d.b) > 0 && d.b[0] < 0x80 {
		v := uint64(d.b[0])
		d.b = d.b[1:]
		return v
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.Fail(errTruncated)
		return 0
	case n < 0:
		d.Fail(errors.New("binrec: varint overflows 64 bits"))
		return 0
	case d.b[n-1] == 0:
		// Only the one-byte encoding of zero may end in a zero byte.
		d.Fail(errors.New("binrec: non-minimal varint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a zigzag-encoded varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint that must fit in an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if v < math.MinInt || v > math.MaxInt {
		d.Fail(fmt.Errorf("binrec: int %d out of range", v))
		return 0
	}
	return int(v)
}

// Uint32 reads a uvarint that must fit in 32 bits (tenant IDs).
func (d *Decoder) Uint32() uint32 {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.Fail(fmt.Errorf("binrec: uint32 %d out of range", v))
		return 0
	}
	return uint32(v)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.Fail(errTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads a bool byte.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail(errors.New("binrec: bool byte is neither 0 nor 1"))
	return false
}

// Float64 reads 8 IEEE-754 bytes.
func (d *Decoder) Float64() float64 {
	if len(d.b) < 8 {
		d.Fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the
// record.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Count reads a uvarint element count whose elements take at least
// minBytes bytes each, and fails unless that many bytes remain. Callers
// size allocations by the result, so a corrupt count cannot allocate
// past the record.
func (d *Decoder) Count(minBytes int) int {
	v := d.Uvarint()
	if v > uint64(len(d.b)/minBytes) {
		d.Fail(fmt.Errorf("binrec: count %d exceeds the %d bytes left", v, len(d.b)))
		return 0
	}
	return int(v)
}

// AppendBools appends a uvarint count and the values packed eight to a
// byte, first value in the lowest bit.
func AppendBools(b []byte, v []bool) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	var acc byte
	for i, x := range v {
		if x {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(v)-1 {
			b = append(b, acc)
			acc = 0
		}
	}
	return b
}

// Bools reads what AppendBools wrote; an empty list decodes as nil.
func (d *Decoder) Bools() []bool {
	n := d.Uvarint()
	if n > uint64(len(d.b))*8 {
		d.Fail(fmt.Errorf("binrec: %d bools exceed the %d bytes left", n, len(d.b)))
		return nil
	}
	if n == 0 {
		return nil
	}
	nb := int(n+7) / 8
	packed := d.b[:nb]
	if last := packed[nb-1]; n%8 != 0 && last>>(n%8) != 0 {
		d.Fail(errors.New("binrec: bools padding bits set"))
		return nil
	}
	d.b = d.b[nb:]
	v := make([]bool, n)
	for i := range v {
		v[i] = packed[i/8]&(1<<(i%8)) != 0
	}
	return v
}

// Index reads a uvarint that must fit in a non-negative int (stage and
// other indices).
func (d *Decoder) Index() int {
	v := d.Uvarint()
	if v > math.MaxInt {
		d.Fail(fmt.Errorf("binrec: index %d out of range", v))
		return 0
	}
	return int(v)
}

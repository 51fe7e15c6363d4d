// Package bitio provides bit-level writers and readers used to encode
// certificates so that their sizes can be accounted for exactly in bits.
//
// Local certification measures certificate size as a number of bits per
// vertex, so byte-oriented encodings would distort every measurement by up
// to 8x. All schemes in this module serialize through bitio and report
// sizes via Writer.Len.
package bitio

import (
	"errors"
	"fmt"
)

// ErrOutOfBits is returned by Reader methods when the underlying stream is
// exhausted before the requested number of bits could be read.
var ErrOutOfBits = errors.New("bitio: out of bits")

// Writer accumulates a bit string. The zero value is an empty writer ready
// for use.
type Writer struct {
	bits []byte // one entry per bit, values 0 or 1 (simple and testable)
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return len(w.bits) }

// Reset empties the writer while keeping its buffer, so encoders looping
// over many certificates can reuse one writer instead of growing a fresh
// buffer per item. Bit strings previously returned by Bits are
// invalidated; Clone results are unaffected.
func (w *Writer) Reset() { w.bits = w.bits[:0] }

// WriteBit appends a single bit (any non-zero b is treated as 1).
func (w *Writer) WriteBit(b byte) {
	if b != 0 {
		b = 1
	}
	w.bits = append(w.bits, b)
}

// WriteBool appends a single bit encoding v.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteUint appends the width lowest-order bits of v, most significant
// first. It panics if width is negative, exceeds 64, or if v does not fit
// in width bits: certificate encoders are expected to size their fields
// correctly, and silently truncating would hide prover bugs.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(byte(v >> uint(i) & 1))
	}
}

// WriteUvarint appends v in a self-delimiting Elias-gamma-style encoding:
// a unary length prefix followed by the value bits. It uses 2*bitlen(v+1)-1
// bits, so small values stay small while remaining self-delimiting.
func (w *Writer) WriteUvarint(v uint64) {
	n := bitLen(v + 1)
	for i := 0; i < n-1; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
	// Write the n-1 low bits of v+1 (the leading 1 is implicit).
	for i := n - 2; i >= 0; i-- {
		w.WriteBit(byte((v + 1) >> uint(i) & 1))
	}
}

// Bits returns the accumulated bit string. The returned slice aliases the
// writer's internal storage; callers must not modify it.
func (w *Writer) Bits() []byte { return w.bits }

// Clone returns an independent copy of the accumulated bit string.
func (w *Writer) Clone() []byte {
	out := make([]byte, len(w.bits))
	copy(out, w.bits)
	return out
}

// Reader consumes a bit string produced by a Writer.
type Reader struct {
	bits []byte
	pos  int
}

// NewReader returns a reader over the given bit string (one byte per bit,
// as produced by Writer.Bits).
func NewReader(bits []byte) *Reader {
	return &Reader{bits: bits}
}

// Remaining reports how many bits are left to read.
func (r *Reader) Remaining() int { return len(r.bits) - r.pos }

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (byte, error) {
	if r.pos >= len(r.bits) {
		return 0, ErrOutOfBits
	}
	b := r.bits[r.pos]
	r.pos++
	if b != 0 {
		b = 1
	}
	return b, nil
}

// ReadBool reads a single bit as a bool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

// ReadUint reads width bits, most significant first.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// ReadUvarint reads a value written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	n := 1
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			break
		}
		n++
		if n > 64 {
			return 0, fmt.Errorf("bitio: malformed uvarint (length prefix too long)")
		}
	}
	v := uint64(1)
	for i := 0; i < n-1; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v - 1, nil
}

// bitLen returns the number of bits in the binary representation of v,
// with bitLen(0) == 0.
func bitLen(v uint64) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

// UintWidth returns the minimum number of bits needed to represent any
// value in [0, max]; it is 1 for max == 0 so that a field is never empty.
func UintWidth(max uint64) int {
	n := bitLen(max)
	if n == 0 {
		return 1
	}
	return n
}

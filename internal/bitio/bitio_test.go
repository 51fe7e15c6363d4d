package bitio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var w Writer
	pattern := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bits())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit #%d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit #%d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("reading past end: err = %v, want ErrOutOfBits", err)
	}
}

func TestWriteBitNormalizesNonZero(t *testing.T) {
	var w Writer
	w.WriteBit(7)
	r := NewReader(w.Bits())
	b, err := r.ReadBit()
	if err != nil || b != 1 {
		t.Fatalf("got (%d, %v), want (1, nil)", b, err)
	}
}

func TestWriteReadUint(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{math.MaxUint64, 64}, {0, 64}, {1 << 40, 41},
	}
	for _, c := range cases {
		var w Writer
		w.WriteUint(c.v, c.width)
		if w.Len() != c.width {
			t.Errorf("WriteUint(%d,%d): Len = %d", c.v, c.width, w.Len())
		}
		got, err := NewReader(w.Bits()).ReadUint(c.width)
		if err != nil {
			t.Errorf("ReadUint(%d): %v", c.width, err)
		}
		if got != c.v {
			t.Errorf("roundtrip(%d,%d) = %d", c.v, c.width, got)
		}
	}
}

func TestWriteUintPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value not fitting width")
		}
	}()
	var w Writer
	w.WriteUint(4, 2)
}

func TestWriteUintPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width > 64")
		}
	}()
	var w Writer
	w.WriteUint(0, 65)
}

func TestUvarintRoundtrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 100, 1023, 1024, 1 << 32, math.MaxUint64 - 1}
	for _, v := range values {
		var w Writer
		w.WriteUvarint(v)
		got, err := NewReader(w.Bits()).ReadUvarint()
		if err != nil {
			t.Fatalf("ReadUvarint(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("uvarint roundtrip %d = %d", v, got)
		}
	}
}

func TestUvarintSizeIsLogarithmic(t *testing.T) {
	// Elias-gamma style: 2*bitlen(v+1)-1 bits.
	for _, v := range []uint64{0, 1, 7, 127, 1 << 20} {
		var w Writer
		w.WriteUvarint(v)
		want := 2*bitLen(v+1) - 1
		if w.Len() != want {
			t.Errorf("uvarint(%d) uses %d bits, want %d", v, w.Len(), want)
		}
	}
}

func TestUvarintQuick(t *testing.T) {
	f := func(v uint64) bool {
		var w Writer
		w.WriteUvarint(v)
		got, err := NewReader(w.Bits()).ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintQuick(t *testing.T) {
	f := func(v uint64, shift uint8) bool {
		width := int(shift%64) + 1
		v &= (1<<uint(width) - 1) // mask to width bits
		var w Writer
		w.WriteUint(v, width)
		got, err := NewReader(w.Bits()).ReadUint(width)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedStreamQuick(t *testing.T) {
	f := func(a uint64, b bool, c uint64) bool {
		c &= 0xFFFF
		var w Writer
		w.WriteUvarint(a)
		w.WriteBool(b)
		w.WriteUint(c, 16)
		r := NewReader(w.Bits())
		ga, err1 := r.ReadUvarint()
		gb, err2 := r.ReadBool()
		gc, err3 := r.ReadUint(16)
		return err1 == nil && err2 == nil && err3 == nil &&
			ga == a && gb == b && gc == c && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	c := w.Clone()
	w.WriteBit(1)
	if len(c) != 2 {
		t.Fatalf("clone length changed: %d", len(c))
	}
}

func TestUintWidth(t *testing.T) {
	cases := []struct {
		max  uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := UintWidth(c.max); got != c.want {
			t.Errorf("UintWidth(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestReadUintBadWidth(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.ReadUint(65); err == nil {
		t.Fatal("expected error for width > 64")
	}
}

func TestMalformedUvarint(t *testing.T) {
	// 70 ones: length prefix longer than 64 must be rejected.
	bits := make([]byte, 70)
	for i := range bits {
		bits[i] = 1
	}
	if _, err := NewReader(bits).ReadUvarint(); err == nil {
		t.Fatal("expected error for malformed uvarint")
	}
}

func BenchmarkWriteUvarint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var w Writer
		for v := uint64(0); v < 64; v++ {
			w.WriteUvarint(v * v)
		}
	}
}

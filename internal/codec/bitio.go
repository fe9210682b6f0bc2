package codec

import (
	"errors"
	"fmt"
)

// BitWriter packs bits MSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	cur  byte
	nbit uint // bits used in cur
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nbit++
	if w.nbit == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nbit = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n must be
// at most 64.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("codec: WriteBits n=%d", n))
	}
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i) & 1))
	}
}

// Bytes flushes (zero-padding the final partial byte) and returns the
// buffer. The writer may continue to be used; padding bits are only added
// to the returned copy.
func (w *BitWriter) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.nbit > 0 {
		out = append(out, w.cur<<(8-w.nbit))
	}
	return out
}

// Len returns the number of whole and partial bits written.
func (w *BitWriter) Len() int { return len(w.buf)*8 + int(w.nbit) }

// ErrBitstream is returned when a read runs past the end of the stream or
// the stream is malformed.
var ErrBitstream = errors.New("codec: corrupt or truncated bitstream")

// BitReader consumes bits MSB-first from a byte slice.
type BitReader struct {
	buf []byte
	pos int  // byte position
	bit uint // bits consumed in current byte
}

// NewBitReader wraps data.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrBitstream
	}
	b := uint(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

// ReadBits returns the next n bits as an unsigned value.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		return 0, fmt.Errorf("codec: ReadBits n=%d", n)
	}
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// WriteUE appends v in unsigned Exp-Golomb code (the H.264/HEVC ue(v)
// syntax element).
func (w *BitWriter) WriteUE(v uint64) {
	// code number v+1 has floor(log2(v+1)) leading zeros then the value.
	x := v + 1
	n := uint(0)
	for t := x; t > 1; t >>= 1 {
		n++
	}
	for i := uint(0); i < n; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(x, n+1)
}

// WriteSE appends v in signed Exp-Golomb code (se(v)): positive k maps to
// 2k-1, negative k to -2k.
func (w *BitWriter) WriteSE(v int64) {
	if v > 0 {
		w.WriteUE(uint64(2*v - 1))
	} else {
		w.WriteUE(uint64(-2 * v))
	}
}

// ReadUE decodes one unsigned Exp-Golomb value.
func (r *BitReader) ReadUE() (uint64, error) {
	n := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 63 {
			return 0, ErrBitstream
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return (1<<n | rest) - 1, nil
}

// ReadSE decodes one signed Exp-Golomb value.
func (r *BitReader) ReadSE() (int64, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int64(u/2) + 1, nil
	}
	return -int64(u / 2), nil
}

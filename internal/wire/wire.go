// Package wire implements the little-endian binary primitives shared by the
// checkpoint format (package checkpoint) and the per-layer Save/Load methods
// in nn, treeconv, valuenet and embedding. Keeping the primitives in one
// place guarantees every serialized component agrees on byte order and
// framing, and keeps the layer packages free of encoding boilerplate.
//
// All integers are fixed-width little-endian; float64s are written as their
// IEEE-754 bit patterns; strings and slices are length-prefixed. Readers
// validate length prefixes against MaxLen so a corrupted prefix fails with a
// clear error instead of attempting a multi-gigabyte allocation.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxLen bounds every length prefix a reader will accept (elements, not
// bytes). The largest legitimate vectors in a checkpoint are parameter
// matrices and experience tables, all far below this.
const MaxLen = 1 << 28

// WriteU8 writes one byte.
func WriteU8(w io.Writer, v uint8) error {
	_, err := w.Write([]byte{v})
	return err
}

// ReadU8 reads one byte.
func ReadU8(r io.Reader) (uint8, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU32 writes a fixed-width uint32.
func WriteU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// ReadU32 reads a fixed-width uint32.
func ReadU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU64 writes a fixed-width uint64.
func WriteU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// ReadU64 reads a fixed-width uint64.
func ReadU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteI64 writes a fixed-width int64.
func WriteI64(w io.Writer, v int64) error { return WriteU64(w, uint64(v)) }

// ReadI64 reads a fixed-width int64.
func ReadI64(r io.Reader) (int64, error) {
	v, err := ReadU64(r)
	return int64(v), err
}

// WriteF64 writes a float64 as its IEEE-754 bit pattern.
func WriteF64(w io.Writer, v float64) error { return WriteU64(w, math.Float64bits(v)) }

// ReadF64 reads a float64 from its IEEE-754 bit pattern.
func ReadF64(r io.Reader) (float64, error) {
	v, err := ReadU64(r)
	return math.Float64frombits(v), err
}

// readLen reads and validates the length prefix of elemSize-byte elements.
// A reader that knows what it still holds (bytes.Reader: every checkpoint
// section is decoded from one) also bounds the prefix by the bytes left, so
// what a decoder allocates is bounded by what it received.
func readLen(r io.Reader, what string, elemSize uint64) (int, error) {
	n, err := ReadU64(r)
	if err != nil {
		return 0, err
	}
	if n > MaxLen {
		return 0, fmt.Errorf("wire: %s length %d exceeds limit %d (corrupt length prefix?)", what, n, MaxLen)
	}
	if held, ok := r.(interface{ Len() int }); ok && n*elemSize > uint64(held.Len()) {
		return 0, fmt.Errorf("wire: %s declares %d bytes, %d remain: %w", what, n*elemSize, held.Len(), io.ErrUnexpectedEOF)
	}
	return int(n), nil
}

// WriteF64s writes a length-prefixed float64 slice.
func WriteF64s(w io.Writer, vs []float64) error {
	if err := WriteU64(w, uint64(len(vs))); err != nil {
		return err
	}
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// ReadF64s reads a length-prefixed float64 slice.
func ReadF64s(r io.Reader) ([]float64, error) {
	n, err := readLen(r, "float slice", 8)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// ReadF64sInto reads a length-prefixed float64 slice into dst, requiring the
// stored length to match len(dst) exactly. The copy is in place, so slices
// shared with other views (e.g. shadow-gradient parameters) observe the new
// values.
func ReadF64sInto(r io.Reader, dst []float64, what string) error {
	n, err := readLen(r, what, 8)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("wire: %s has %d values, want %d", what, n, len(dst))
	}
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// Byte-slice accessors for in-place encoding. The stream primitives above
// serve record-oriented formats (checkpoints); these serve page-oriented
// formats (package storage's slotted heap pages), where fields live at
// computed offsets inside a fixed-size buffer and an io.Writer would only
// add copies. Same byte order, same bit patterns.

// PutU16 writes a fixed-width uint16 at the start of b.
func PutU16(b []byte, v uint16) { binary.LittleEndian.PutUint16(b, v) }

// U16 reads a fixed-width uint16 from the start of b.
func U16(b []byte) uint16 { return binary.LittleEndian.Uint16(b) }

// PutI64 writes a fixed-width int64 at the start of b.
func PutI64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }

// I64 reads a fixed-width int64 from the start of b.
func I64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// WriteString writes a length-prefixed UTF-8 string.
func WriteString(w io.Writer, s string) error {
	if err := WriteU64(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// ReadString reads a length-prefixed string.
func ReadString(r io.Reader) (string, error) {
	n, err := readLen(r, "string", 1)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

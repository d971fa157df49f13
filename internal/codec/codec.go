// Package codec is the one bounded reader, and the one layout of a batch of
// sparse vectors, for bytes that come from outside the process: the wire's
// frames (internal/transport) and the journal's records (internal/persist)
// both read through a Decoder and lay a batch out as a vectors block.
//
// Integers are fixed-width little-endian or varints (encoding/binary's
// Uvarint, and Varint for signed values); floats travel as their IEEE bits.
// A length or count is written before what it counts.
//
//	words   = every word of a []uint32, []int32, []float32 or []uint64,
//	          little-endian, 4 or 8 bytes each (AppendWords, DecodeWords);
//	          its count is the caller's to write
//	vectors = n uvarint, n × (len(Idx) uvarint, len(Val) uvarint),
//	          the words of every Idx, then the words of every Val
//
// Every word array the process writes or reads — the vectors block, the
// wire's insert IDs and a snapshot's arrays — goes through AppendWords and
// DecodeWords.
//
// A Decoder checks every length and count against the bytes left before
// anything is sized by it, and its callers refuse trailing bytes (Done), so
// no payload can make a reader allocate past its own length.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"plsh/internal/sparse"
)

// VectorsBound is an upper bound on the length of vs's vectors block.
func VectorsBound(vs []sparse.Vector) int {
	n := binary.MaxVarintLen64
	for _, v := range vs {
		n += 2*binary.MaxVarintLen64 + 4*len(v.Idx) + 4*len(v.Val)
	}
	return n
}

// AppendVectors appends vs as a vectors block to b.
func AppendVectors(b []byte, vs []sparse.Vector) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, uint64(len(v.Idx)))
		b = binary.AppendUvarint(b, uint64(len(v.Val)))
	}
	for _, v := range vs {
		b = AppendWords(b, v.Idx)
	}
	for _, v := range vs {
		b = AppendWords(b, v.Val)
	}
	return b
}

// Word is the element of a word array.
type Word interface {
	uint32 | int32 | float32 | uint64
}

// AppendWords appends every word of ws to b, little-endian, a float as its
// IEEE bits.
func AppendWords[W Word](b []byte, ws []W) []byte {
	switch ws := any(ws).(type) {
	case []uint32:
		for _, x := range ws {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
	case []int32:
		for _, x := range ws {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
	case []float32:
		for _, x := range ws {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
	case []uint64:
		for _, x := range ws {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
	}
	return b
}

// DecodeWords fills dst from p, which holds len(dst) words as AppendWords
// lays them out; it panics if p is shorter.
func DecodeWords[W Word](dst []W, p []byte) {
	switch dst := any(dst).(type) {
	case []uint32:
		p = p[:4*len(dst)]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(p[4*i:])
		}
	case []int32:
		p = p[:4*len(dst)]
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
		}
	case []float32:
		p = p[:4*len(dst)]
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
	case []uint64:
		p = p[:8*len(dst)]
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
	}
}

// AppendString appends s, its length first, to b.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Decoder reads one payload. The first failure sticks: every later read
// returns zero, and Err and Done report the first, which wraps the
// sentinel the Decoder was made with.
type Decoder struct {
	b        []byte
	err      error
	sentinel error
}

// NewDecoder returns a Decoder over p whose failures wrap sentinel.
func NewDecoder(p []byte, sentinel error) Decoder {
	return Decoder{b: p, sentinel: sentinel}
}

// Fail fails the payload, unless it has failed already.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.sentinel}, args...)...)
	}
	d.b = nil
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Take consumes n bytes, or fails if fewer are left. The bytes are the
// payload's own, capped so an append cannot reach past them.
func (d *Decoder) Take(n int, what string) []byte {
	if n > len(d.b) {
		d.Fail("%s needs %d bytes, %d left", what, n, len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *Decoder) U8(what string) byte {
	if p := d.Take(1, what); p != nil {
		return p[0]
	}
	return 0
}

func (d *Decoder) U32(what string) uint32 {
	if p := d.Take(4, what); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *Decoder) U64(what string) uint64 {
	if p := d.Take(8, what); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *Decoder) Uvarint(what string) uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail("bad %s varint", what)
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *Decoder) Varint(what string) int64 {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail("bad %s varint", what)
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *Decoder) Flag(what string) bool {
	switch d.U8(what) {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail("%s is not a bool", what)
	return false
}

// Count reads a count of items, each at least size bytes long, and fails
// unless that many fit in the bytes left.
func (d *Decoder) Count(size int, what string) int {
	n := d.Uvarint(what)
	if n > uint64(len(d.b)/size) {
		d.Fail("%d %s in %d bytes", n, what, len(d.b))
		return 0
	}
	return int(n)
}

func (d *Decoder) Str(what string) string {
	return string(d.Take(d.Count(1, what), what))
}

// Done fails the payload if bytes are left over, and returns the first
// failure.
func (d *Decoder) Done() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Vectors reads a vectors block into one Idx and one Val array, which the
// vectors are carved from.
func (d *Decoder) Vectors() []sparse.Vector {
	n := d.Count(2, "vectors")
	if n == 0 {
		return nil
	}
	// First pass over the lengths: the totals, checked against the bytes
	// left before anything is allocated.
	lens := *d
	var nIdx, nVal int
	for range n {
		nIdx += d.Count(4, "indexes")
		nVal += d.Count(4, "values")
	}
	idxBytes := d.Take(4*nIdx, "indexes")
	valBytes := d.Take(4*nVal, "values")
	if d.err != nil {
		return nil
	}
	vs := make([]sparse.Vector, n)
	idx := make([]uint32, nIdx)
	val := make([]float32, nVal)
	DecodeWords(idx, idxBytes)
	DecodeWords(val, valBytes)
	for i := range vs {
		a, b := int(lens.Uvarint("")), int(lens.Uvarint(""))
		vs[i] = sparse.Vector{Idx: Carve(&idx, a), Val: Carve(&val, b)}
	}
	return vs
}

// Carve cuts the next n items off *arena, capped so an append to one
// cannot overwrite the next; nil when n is 0.
func Carve[T any](arena *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

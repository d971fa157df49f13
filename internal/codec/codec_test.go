package codec

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"plsh/internal/sparse"
)

var errTest = errors.New("test payload")

// TestVectorsRoundTrip: a block decodes to the vectors it was appended
// from, empty ones as nil, carved so an append to one cannot reach the
// next; and its length stays within VectorsBound.
func TestVectorsRoundTrip(t *testing.T) {
	vs := []sparse.Vector{
		{Idx: []uint32{1, 5}, Val: []float32{0.5, 0.25}},
		{},
		{Idx: []uint32{7}, Val: []float32{1}},
	}
	b := AppendVectors(nil, vs)
	if len(b) > VectorsBound(vs) {
		t.Fatalf("block is %d bytes, past its bound %d", len(b), VectorsBound(vs))
	}
	d := NewDecoder(b, errTest)
	got := d.Vectors()
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vs) {
		t.Fatalf("decoded %v, want %v", got, vs)
	}
	_ = append(got[0].Idx, 99)
	if got[2].Idx[0] != 7 {
		t.Fatal("an append to one vector overwrote the next")
	}
}

// TestDecoderFailuresWrapTheSentinel: every refusal wraps the sentinel the
// caller made the Decoder with, and the first one sticks.
func TestDecoderFailuresWrapTheSentinel(t *testing.T) {
	block := AppendVectors(nil, []sparse.Vector{{Idx: []uint32{3}, Val: []float32{2}}})
	for _, tc := range []struct {
		name string
		p    []byte
		read func(*Decoder)
	}{
		{"short", []byte{1, 2, 3}, func(d *Decoder) { d.U64("word") }},
		{"count", []byte{9, 0, 0, 0}, func(d *Decoder) { d.Count(4, "items") }},
		{"flag", []byte{2}, func(d *Decoder) { d.Flag("flag") }},
		{"truncated", block[:len(block)-1], func(d *Decoder) { d.Vectors() }},
		{"trailing", []byte{1, 2}, func(d *Decoder) { d.U8("byte") }},
	} {
		d := NewDecoder(tc.p, errTest)
		tc.read(&d)
		first := d.Done()
		if !errors.Is(first, errTest) {
			t.Errorf("%s: err = %v, want it to wrap the sentinel", tc.name, first)
		}
		d.Fail("later")
		if d.U32("after") != 0 || d.Err() != first {
			t.Errorf("%s: a later read or failure replaced the first", tc.name)
		}
	}
}

// TestWordsRoundTrip: every word type comes back bit for bit — a NaN with a
// payload, −0, a negative int32, the largest uint64 — from bytes that are
// its little-endian words, appended after what b held.
func TestWordsRoundTrip(t *testing.T) {
	nan := math.Float32frombits(0x7fc0_1234)
	fs := []float32{nan, float32(math.Copysign(0, -1)), 1.5}
	b := AppendWords([]byte{0xee}, fs)
	if want := []byte{0xee, 0x34, 0x12, 0xc0, 0x7f, 0, 0, 0, 0x80, 0, 0, 0xc0, 0x3f}; !bytes.Equal(b, want) {
		t.Fatalf("float32 words = %x, want %x", b, want)
	}
	gotF := make([]float32, len(fs))
	DecodeWords(gotF, b[1:])
	for i := range fs {
		if math.Float32bits(gotF[i]) != math.Float32bits(fs[i]) {
			t.Errorf("float32 word %d = %#x, want %#x", i, math.Float32bits(gotF[i]), math.Float32bits(fs[i]))
		}
	}
	roundTrip(t, []uint32{0, 1, math.MaxUint32}, 4)
	roundTrip(t, []int32{-1, math.MinInt32, math.MaxInt32}, 4)
	roundTrip(t, []uint64{0, 1 << 63, math.MaxUint64}, 8)
	if b := AppendWords([]byte{}, []int32{-2}); !bytes.Equal(b, []byte{0xfe, 0xff, 0xff, 0xff}) {
		t.Errorf("int32 -2 = %x", b)
	}
	if b := AppendWords(nil, []uint64{math.MaxUint64 - 1}); !bytes.Equal(b, []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) {
		t.Errorf("uint64 max−1 = %x", b)
	}
}

func roundTrip[W Word](t *testing.T, ws []W, size int) {
	t.Helper()
	b := AppendWords(nil, ws)
	if len(b) != size*len(ws) {
		t.Fatalf("%T: %d bytes for %d words", ws, len(b), len(ws))
	}
	got := make([]W, len(ws))
	DecodeWords(got, b)
	if !reflect.DeepEqual(got, ws) {
		t.Errorf("%T: decoded %v, want %v", ws, got, ws)
	}
}

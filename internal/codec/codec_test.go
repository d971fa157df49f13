package codec

import (
	"errors"
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

package sparse

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzFromRaw: whatever arrays a snapshot hands FromRaw — it is the arena's
// only gate between disk and the query path — the result is an error or a
// matrix every row of which reads back in bounds, columns strictly increasing
// below dim; never a panic. The arrays arrive as little-endian bytes, four to
// an element.
func FuzzFromRaw(f *testing.F) {
	le := func(words ...uint32) []byte {
		b := make([]byte, 0, 4*len(words))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	one := math.Float32bits(1)
	neg := uint32(1<<32 - 1)                                  // −1 as an offset
	f.Add(10, le(0, 2, 2, 3), le(1, 4, 9), le(one, one, one)) // three rows, the middle one empty
	f.Add(10, le(0), le(), le())                              // no rows
	f.Add(10, le(0, 2, 1, 3), le(1, 4, 9), le(one, one, one)) // offsets decrease
	f.Add(10, le(0, 4, 3), le(1, 4, 9), le(one, one, one))    // an offset past the non-zeros, the last one not
	f.Add(10, le(0, neg, 3), le(1, 4, 9), le(one, one, one))  // a negative offset
	f.Add(10, le(1, 2, 3), le(1, 4, 9), le(one, one, one))    // first offset not zero
	f.Add(10, le(0, 2, 3), le(4, 1, 9), le(one, one, one))    // columns out of order
	f.Add(10, le(0, 2, 3), le(1, 1, 9), le(one, one, one))    // a column twice
	f.Add(9, le(0, 2, 3), le(1, 4, 9), le(one, one, one))     // a column at dim
	f.Add(10, le(0, 2, 3), le(1, 4, 9), le(one, one))         // a value short
	f.Add(0, le(0), le(), le())                               // no dimensions
	f.Fuzz(func(t *testing.T, dim int, rawOffs, rawCols, rawVals []byte) {
		offs := make([]int32, len(rawOffs)/4)
		for i := range offs {
			offs[i] = int32(binary.LittleEndian.Uint32(rawOffs[4*i:]))
		}
		cols := make([]uint32, len(rawCols)/4)
		for i := range cols {
			cols[i] = binary.LittleEndian.Uint32(rawCols[4*i:])
		}
		vals := make([]float32, len(rawVals)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(rawVals[4*i:]))
		}
		m, err := FromRaw(dim, offs, cols, vals)
		if err != nil {
			return
		}
		if m.Rows() != len(offs)-1 || m.NNZ() != len(cols) {
			t.Fatalf("accepted %d offsets over %d non-zeros as %d rows, %d non-zeros", len(offs), len(cols), m.Rows(), m.NNZ())
		}
		seen := 0
		for i := 0; i < m.Rows(); i++ {
			idx, val := m.Doc(i)
			if len(idx) != len(val) {
				t.Fatalf("row %d: %d columns, %d values", i, len(idx), len(val))
			}
			for j, c := range idx {
				if int(c) >= dim || j > 0 && c <= idx[j-1] {
					t.Fatalf("row %d: columns %v in %d dimensions", i, idx, dim)
				}
			}
			seen += len(idx)
		}
		if seen != len(cols) {
			t.Fatalf("rows cover %d of %d non-zeros", seen, len(cols))
		}
	})
}

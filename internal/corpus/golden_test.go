package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"plsh/internal/sparse"
)

// TestEncodedRowsGolden pins every bit of the encoded corpus: the SHA-256
// of a generated collection's rows, followed by the rows a stream of
// another seed yields next. The benchmarks and every recall figure stand
// on these vectors, so a change to the generator or to the IDF weighting
// that moves one value by one ulp fails here.
func TestEncodedRowsGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		streamed int
		want     string
	}{
		{"twitter", Twitter(60000, 50000, 1), 3000, "fbd43f27cad23f7074cd75b5f5d40759b76b5c5d25843e2b37cb4126c8286ae9"},
		{"wikipedia", Wikipedia(5000, 20000, 2), 3000, "80d4b10ff8e2f32b9d220b2037b80178a05f7c119ba9d0b89f7407d45f7fdc5b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			c := Generate(tc.cfg)
			for i := range c.Mat.Rows() {
				hashRow(h, c.Mat.Row(i))
			}
			cfg := tc.cfg
			cfg.Seed++
			s := NewStream(cfg)
			for range tc.streamed {
				hashRow(h, s.NextVector())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("encoded rows hash to %s, want %s", got, tc.want)
			}
		})
	}
}

func hashRow(h hash.Hash, v sparse.Vector) {
	_ = binary.Write(h, binary.LittleEndian, uint32(len(v.Idx)))
	_ = binary.Write(h, binary.LittleEndian, v.Idx)
	_ = binary.Write(h, binary.LittleEndian, v.Val)
}

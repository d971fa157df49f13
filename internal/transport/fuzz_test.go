package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"testing"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// fuzzNode is the small real node decoded requests are served from: Dim
// 16, so the golden vector (columns 1 and 5) fits and most mutated
// columns do not.
func fuzzNode(t testing.TB) *node.Node {
	n, err := node.Open(context.Background(), node.Config{
		Params:   lshhash.Params{Dim: 16, K: 4, M: 4, Seed: 7},
		Capacity: 64,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := []sparse.Vector{goldenVec(), {Idx: []uint32{1, 2}, Val: []float32{0.6, 0.8}}, {Idx: []uint32{15}, Val: []float32{1}}}
	if _, err := n.Insert(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	return n
}

// FuzzDecodeFrame: frame bytes come from the network, so whatever they say,
// both decoders end in an error or a frame — never a panic — and a request
// that decodes is answered by handle, with an error or an answer, against a
// real node. Seeds are the two golden streams and their truncations, which
// carry every op (retired ones included), the search parameters and every
// response field.
func FuzzDecodeFrame(f *testing.F) {
	for _, golden := range []string{goldenStream, goldenRespStream} {
		raw, err := hex.DecodeString(golden)
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(raw), len(raw) - 1, len(raw) / 2, len(raw) / 4, 9, 1} {
			f.Add(raw[:n])
		}
	}
	backend := NewLocal(fuzzNode(f))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dec := gob.NewDecoder(bytes.NewReader(raw))
		for {
			req := new(request)
			if dec.Decode(req) != nil {
				break
			}
			if req.Op == opCancel {
				continue // serveConn answers no frame for it
			}
			resp := &response{Seq: req.Seq}
			handle(context.Background(), backend, req, resp)
		}
		dec = gob.NewDecoder(bytes.NewReader(raw))
		for dec.Decode(new(response)) == nil {
		}
	})
}

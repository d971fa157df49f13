package transport

import (
	"bufio"
	"bytes"
	"context"
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

// FuzzDecodeFrame: frame bytes come from the network, so whatever they
// say, reading them as a connection does — preamble, then frames — ends in
// an error or frames, never a panic, in either direction. A request that
// decodes is answered by handle against a real node, with an error or an
// answer, and that answer's frame decodes. The whole input is also tried
// as one payload of each kind. Seeds are the two golden streams and their
// truncations, which carry the preamble, every op (retired ones included),
// the search parameters and every response payload, then each golden
// frame's payload alone.
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
	for _, g := range goldenRequests() {
		f.Add(appendRequest(nil, &g.frame)[4:])
	}
	for _, g := range goldenResponses(f) {
		f.Add(appendResponse(nil, &g.frame)[4:])
	}
	backend := NewLocal(fuzzNode(f))
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bufio.NewReader(bytes.NewReader(raw))
		if readPreamble(r) == nil {
			var buf []byte
			for {
				payload, err := readFrame(r, buf)
				if err != nil {
					break
				}
				req, err := decodeRequest(payload)
				buf = keep(payload)
				if err != nil {
					break
				}
				if req.Op == opCancel {
					continue // serveConn answers no frame for it
				}
				resp := &response{Seq: req.Seq, Op: req.Op}
				handle(context.Background(), backend, req, resp)
				if _, err := decodeResponse(appendResponse(nil, resp)[4:]); err != nil {
					t.Fatalf("the answer to %+v does not decode: %v", req, err)
				}
			}
		}
		r = bufio.NewReader(bytes.NewReader(raw))
		if readPreamble(r) == nil {
			for {
				payload, err := readFrame(r, nil)
				if err != nil {
					break
				}
				if _, err := decodeResponse(payload); err != nil {
					break
				}
			}
		}
		decodeRequest(raw)
		decodeResponse(raw)
	})
}

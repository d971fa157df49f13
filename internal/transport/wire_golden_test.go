package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"net"
	"reflect"
	"testing"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/node"
	"plsh/internal/sparse"
)

// TestOpcodeValuesStable pins every wire constant to its numeric value.
// The opcode block is append-only: a reordered or renumbered constant
// breaks mixed-version clusters silently (an old peer would run the
// wrong operation), so any diff here must be an append — this table
// grows, existing rows never change. Opcodes 2 and 3 are retired and stay
// reserved: opDelete remaining 4 pins their placeholders.
func TestOpcodeValuesStable(t *testing.T) {
	ops := []struct {
		name string
		got  op
		want uint8
	}{
		{"opInsert", opInsert, 1},
		{"opDelete", opDelete, 4},
		{"opMerge", opMerge, 5},
		{"opRetire", opRetire, 6},
		{"opStats", opStats, 7},
		{"opCancel", opCancel, 8},
		{"opFlush", opFlush, 9},
		{"opSave", opSave, 10},
		{"opSearch", opSearch, 11},
		{"opDoc", opDoc, 12},
	}
	for _, tc := range ops {
		if uint8(tc.got) != tc.want {
			t.Errorf("%s = %d, must stay %d (opcodes are append-only)", tc.name, tc.got, tc.want)
		}
	}
	codes := []struct {
		name string
		got  respCode
		want uint8
	}{
		{"codeOK", codeOK, 0},
		{"codeFull", codeFull, 1},
		{"codeError", codeError, 2},
		{"codeNotFound", codeNotFound, 3},
	}
	for _, tc := range codes {
		if uint8(tc.got) != tc.want {
			t.Errorf("%s = %d, must stay %d (response codes are append-only)", tc.name, tc.got, tc.want)
		}
	}
	// Every connection opens with v3, pinned by the golden streams below; a
	// server closes a connection of any other (TestSearchFramesAcrossRevisions).
	if wireVersion != 3 {
		t.Errorf("wireVersion = %d; a new revision changes the frame layout, and the golden streams with it", wireVersion)
	}
}

// golden is one named canonical frame of a golden stream.
type golden[T any] struct {
	name  string
	frame T
}

func goldenVec() sparse.Vector {
	return sparse.Vector{Idx: []uint32{1, 5}, Val: []float32{0.5, 0.25}}
}

// goldenRequests is one canonical frame per opcode, in opcode order. The
// retired opcodes 2 and 3 carry a header only: the codec reads no body of
// an op it does not know.
func goldenRequests() []golden[request] {
	return []golden[request]{
		{"insert", request{Seq: 1, Op: opInsert, Vectors: []sparse.Vector{goldenVec()}}},
		{"queryBatch", request{Seq: 2, Op: 2, Deadline: 12345}}, // retired
		{"queryTopK", request{Seq: 3, Op: 3}},                   // retired
		{"delete", request{Seq: 4, Op: opDelete, ID: 42}},
		{"merge", request{Seq: 5, Op: opMerge}},
		{"retire", request{Seq: 6, Op: opRetire}},
		{"stats", request{Seq: 7, Op: opStats}},
		{"cancel", request{Seq: 8, Op: opCancel}},
		{"flush", request{Seq: 9, Op: opFlush}},
		{"save", request{Seq: 10, Op: opSave}},
		{"search", request{Seq: 11, Op: opSearch, Vectors: []sparse.Vector{goldenVec(), {Idx: []uint32{7}, Val: []float32{1}}},
			Params: node.SearchParams{Radius: 1.25, K: 9}, Deadline: 1 << 62}},
		{"doc", request{Seq: 12, Op: opDoc, ID: 99}},
	}
}

// goldenStream is the byte-exact encoding of goldenRequests on one
// connection: the preamble, then each frame, exactly as Client.writeLoop
// sends them. It pins the preamble, the frame layout and the opcode
// numbering all at once: any change to them shows up as a diff here, and
// must come with a new wireVersion.
const goldenStream = "" +
	"504c5348031d0000000101000000000000000001020201000000050000000000" +
	"003f0000803e0a000000020239300000000000000a0000000303000000000000" +
	"00000e000000040400000000000000002a0000000a0000000505000000000000" +
	"00000a000000060600000000000000000a000000070700000000000000000a00" +
	"0000080800000000000000000a000000090900000000000000000a0000000a0a" +
	"0000000000000000300000000b0b0000000000000040000000000000f43f1202" +
	"020201010100000005000000070000000000003f0000803e0000803f0e000000" +
	"0c0c000000000000000063000000"

// goldenStats is a node.Stats with every field set to a distinct nonzero
// value — by reflection, so a field appended to the struct is set without
// this function being remembered, and TestStatsSurviveCodec checks it.
func goldenStats(t testing.TB) node.Stats {
	var st node.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("disk full")
		default:
			t.Fatalf("node.Stats.%s has kind %v; teach goldenStats to set it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// goldenResponses is one canonical frame per response code, then one per
// payload: the ids of an insert, the answer lists of a search (one of them
// empty), a Stats with every field set, and a Doc answer.
func goldenResponses(t testing.TB) []golden[response] {
	return []golden[response]{
		{"ok", response{Seq: 1, Op: opMerge}},
		{"full", response{Seq: 2, Op: opInsert, Code: codeFull}},
		{"error", response{Seq: 3, Op: 99, Code: codeError, Err: "transport: unknown op 99"}},
		{"notFound", response{Seq: 4, Op: opDelete, Code: codeNotFound}},
		{"ids", response{Seq: 5, Op: opInsert, IDs: []uint32{0, 1, 7}}},
		{"results", response{Seq: 6, Op: opSearch, Results: [][]core.Neighbor{
			{{ID: 3, Dist: 0.25}, {ID: 9, Dist: 0.5}}, nil, {{ID: 1, Dist: 1.25}}}}},
		{"stats", response{Seq: 7, Op: opStats, Stats: goldenStats(t)}},
		{"doc", response{Seq: 8, Op: opDoc, Doc: goldenVec(), Known: true}},
	}
}

// goldenRespStream is goldenStream's counterpart for the other direction:
// the server's preamble and goldenResponses' frames, as serveConn writes
// them.
const goldenRespStream = "" +
	"504c53480303000000010500030000000201011c000000036302187472616e73" +
	"706f72743a20756e6b6e6f776e206f7020393903000000040403100000000501" +
	"00030000000001000000070000002b000000060b000302000103000000000000" +
	"000000d03f09000000000000000000e03f01000000000000000000f43f200000" +
	"00070700020406080a010e10121416096469736b2066756c6c0d0e0f20222426" +
	"2817000000080c000101020201000000050000000000003f0000803e"

// checkGolden encodes frames after a preamble and requires the byte-exact
// golden stream, then decodes the golden bytes back and requires the
// canonical frames, and a clean end after the last — so both directions
// of the layout are pinned.
func checkGolden[T any](t *testing.T, stream string, frames []golden[T],
	appendFrame func([]byte, *T) []byte, decode func([]byte) (*T, error)) {
	t.Helper()
	b := appendPreamble(nil)
	for _, g := range frames {
		b = appendFrame(b, &g.frame)
	}
	if got := hex.EncodeToString(b); got != stream {
		t.Fatalf("wire frame encoding changed; a peer of this revision cannot read it.\ngot:  %s\nwant: %s",
			got, stream)
	}
	raw, err := hex.DecodeString(stream)
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(bytes.NewReader(raw))
	if err := readPreamble(r); err != nil {
		t.Fatal(err)
	}
	for _, g := range frames {
		payload, err := readFrame(r, nil)
		if err != nil {
			t.Fatalf("%s: reading golden bytes: %v", g.name, err)
		}
		back, err := decode(payload)
		if err != nil {
			t.Fatalf("%s: decoding golden bytes: %v", g.name, err)
		}
		if !reflect.DeepEqual(*back, g.frame) {
			t.Fatalf("%s: golden bytes decode to %+v, want %+v", g.name, *back, g.frame)
		}
	}
	if _, err := readFrame(r, nil); err != io.EOF {
		t.Fatalf("after the last golden frame: %v, want io.EOF", err)
	}
}

// TestWireFramesGolden pins both frame layouts to their golden streams.
func TestWireFramesGolden(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		checkGolden(t, goldenStream, goldenRequests(), appendRequest, decodeRequest)
	})
	t.Run("response", func(t *testing.T) {
		checkGolden(t, goldenRespStream, goldenResponses(t), appendResponse, decodeResponse)
	})
}

// TestStatsSurviveCodec: a node.Stats with every field set, and search
// parameters with every field set, come back from the codec equal, field
// for field. goldenStats sets fields by reflection, so a field appended to
// node.Stats without a codec line fails here rather than reading zero in
// production.
func TestStatsSurviveCodec(t *testing.T) {
	want := goldenStats(t)
	back, err := decodeResponse(appendResponse(nil, &response{Seq: 1, Op: opStats, Stats: want})[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Stats, want) {
		t.Fatalf("node.Stats crossed the codec as\n%+v\nwant\n%+v", back.Stats, want)
	}

	var p node.SearchParams
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 7))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.625)
		default:
			t.Fatalf("node.SearchParams.%s has kind %v; teach this test to set it", v.Type().Field(i).Name, f.Kind())
		}
	}
	req, err := decodeRequest(appendRequest(nil, &request{Seq: 1, Op: opSearch, Params: p})[4:])
	if err != nil {
		t.Fatal(err)
	}
	if req.Params != p {
		t.Fatalf("node.SearchParams crossed the codec as %+v, want %+v", req.Params, p)
	}
}

// TestSearchIdenticalAcrossTransports is the mixed-path satellite: the
// same Search (radius override, top-k bound) against
// the same node must answer byte-identically through transport.NewLocal
// and through a real TCP Client — the serialization layer may not perturb
// parameters or results.
func TestSearchIdenticalAcrossTransports(t *testing.T) {
	n, err := node.Open(context.Background(), node.Config{
		Params:   lshhash.Params{Dim: 2000, K: 4, M: 16, Seed: 7},
		Capacity: 1000,
		Build:    core.Defaults(),
		Query:    core.QueryDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocal(n)
	docs := testDocs(400, 3)
	if _, err := local.Insert(context.Background(), docs); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Serve(ctx, l, local, nil)
	remote, err := Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	queries := docs[:16]
	for _, p := range []node.SearchParams{
		{},
		{Radius: 1.2},
		{K: 5},
		{Radius: 1.1, K: 3},
	} {
		a, err := local.Search(context.Background(), queries, p)
		if err != nil {
			t.Fatalf("local search %+v: %v", p, err)
		}
		b, err := remote.Search(context.Background(), queries, p)
		if err != nil {
			t.Fatalf("tcp search %+v: %v", p, err)
		}
		if len(a) != len(b) {
			t.Fatalf("params %+v: %d vs %d answer lists", p, len(a), len(b))
		}
		for qi := range a {
			// The codec decodes an empty list as nil; normalize before the
			// byte-identical comparison.
			if len(a[qi]) == 0 && len(b[qi]) == 0 {
				continue
			}
			if !reflect.DeepEqual(a[qi], b[qi]) {
				t.Fatalf("params %+v query %d: local %+v, tcp %+v", p, qi, a[qi], b[qi])
			}
		}
	}

	// Doc crosses the wire unperturbed too.
	for _, id := range []uint32{0, 399} {
		va, ka, err := local.Doc(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		vb, kb, err := remote.Doc(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb || !reflect.DeepEqual(va.Idx, vb.Idx) || !reflect.DeepEqual(va.Val, vb.Val) {
			t.Fatalf("doc %d differs across transports", id)
		}
	}
	if _, known, err := remote.Doc(context.Background(), 5000); err != nil || known {
		t.Fatalf("unknown id over TCP: known=%v err=%v", known, err)
	}
}

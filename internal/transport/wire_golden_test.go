package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"errors"
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
	// Every frame declares v3, pinned by the "search" golden frame below;
	// a server answers no other revision (TestSearchFramesAcrossRevisions).
	if searchVersion != 3 {
		t.Errorf("searchVersion = %d; a new revision changes the frame layout, and the golden stream with it", searchVersion)
	}
}

// gob numbers types process-wide in order of first encoding. On a real
// connection the client's request always goes first; fix that order for
// this test binary, so the golden streams below do not depend on which
// test happens to run first.
func init() {
	enc := gob.NewEncoder(io.Discard)
	if err := errors.Join(enc.Encode(request{}), enc.Encode(response{})); err != nil {
		panic(err)
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

// goldenRequests is one canonical frame per opcode, in opcode order.
func goldenRequests() []golden[request] {
	return []golden[request]{
		{"insert", request{Seq: 1, Op: opInsert, Vectors: []sparse.Vector{goldenVec()}}},
		{"queryBatch", request{Seq: 2, Op: 2, Vectors: []sparse.Vector{goldenVec()}, Deadline: 12345}}, // retired
		{"queryTopK", request{Seq: 3, Op: 3, Vectors: []sparse.Vector{goldenVec()}}},                   // retired
		{"delete", request{Seq: 4, Op: opDelete, ID: 42}},
		{"merge", request{Seq: 5, Op: opMerge}},
		{"retire", request{Seq: 6, Op: opRetire}},
		{"stats", request{Seq: 7, Op: opStats}},
		{"cancel", request{Seq: 8, Op: opCancel}},
		{"flush", request{Seq: 9, Op: opFlush}},
		{"save", request{Seq: 10, Op: opSave}},
		{"search", request{Seq: 11, Op: opSearch, Vectors: []sparse.Vector{goldenVec()},
			Search: &searchParams{Version: 3, Radius: 1.25, K: 9}}},
		{"doc", request{Seq: 12, Op: opDoc, ID: 99}},
	}
}

// goldenStream is the byte-exact gob encoding of goldenRequests on one
// encoder (one encoder per connection, exactly like Client.writeLoop).
// It pins the request struct's field names, types, and the opcode
// numbering all at once: any change to the frame layout — renamed field,
// retyped field, renumbered opcode — shows up as a diff here and must be
// made as a backward-compatible append instead.
//
// Regenerated when searchParams lost the v2 Routing field: gob's one-time
// type descriptor for the struct names every field, so the descriptor block
// changed, and the "searchRouted" frame went with the field. Every other
// frame's bytes are unchanged (gob omits zero fields), and the stream is
// again the one clients sent before the field was added.
//
// Regenerated again when request lost the K field of the retired top-k op:
// the descriptor block changed, and so did the "queryTopK" frame, which
// carried K = 7. A frame from an older client that still sets K decodes
// here, gob skipping the field request no longer has.
//
// Regenerated a third time when searchParams lost the candidate budget
// field and the revision moved to 3: the descriptor block no longer names
// the budget, and the "search" frame declares Version 3 and carries none.
// Every other frame's bytes are unchanged. Unlike the two changes above,
// this one is refused rather than decoded across revisions: a server
// answers revision 3 only, so an older client's budget is never silently
// dropped.
const goldenStream = "" +
	"507f030101077265717565737401ff80000106010353657101060001024f7001" +
	"06000107566563746f727301ff880001024944010600010653656172636801ff" +
	"8a000108446561646c696e6501040000001eff870201010f5b5d737061727365" +
	"2e566563746f7201ff880001ff82000026ff8103010106566563746f7201ff82" +
	"000102010349647801ff8400010356616c01ff8600000016ff83020101085b5d" +
	"75696e74333201ff84000106000017ff85020101095b5d666c6f6174333201ff" +
	"86000108000037ff890301010c736561726368506172616d7301ff8a00010301" +
	"0756657273696f6e010600010652616469757301080001014b010400000016ff" +
	"80010101010101010201050102fee03ffed03f00001aff800102010201010102" +
	"01050102fee03ffed03f0003fe60720016ff80010301030101010201050102fe" +
	"e03ffed03f000009ff8001040104022a0007ff80010501050007ff8001060106" +
	"0007ff80010701070007ff80010801080007ff80010901090007ff80010a010a" +
	"0020ff80010b010b0101010201050102fee03ffed03f0002010301fef43f0112" +
	"000009ff80010c010c026300"

// goldenStats is a node.Stats with every field set to a distinct nonzero
// value — by reflection, so a field appended to the struct joins the
// golden stream (as an append to its bytes) without this function being
// remembered.
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
// payload field: the ids of an insert, the answer lists of a search (one
// of them empty), a Stats with every field set, and a Doc answer.
func goldenResponses(t testing.TB) []golden[response] {
	return []golden[response]{
		{"ok", response{Seq: 1}},
		{"full", response{Seq: 2, Code: codeFull}},
		{"error", response{Seq: 3, Code: codeError, Err: "transport: unknown op 99"}},
		{"notFound", response{Seq: 4, Code: codeNotFound}},
		{"ids", response{Seq: 5, IDs: []uint32{0, 1, 7}}},
		{"results", response{Seq: 6, Results: [][]core.Neighbor{
			{{ID: 3, Dist: 0.25}, {ID: 9, Dist: 0.5}}, nil, {{ID: 1, Dist: 1.25}}}}},
		{"stats", response{Seq: 7, Stats: goldenStats(t)}},
		{"doc", response{Seq: 8, Doc: goldenVec(), Known: true}},
	}
}

// goldenRespStream is goldenStream's counterpart for the other direction:
// the byte-exact gob encoding of goldenResponses on one encoder, as
// serveConn writes them. It pins the response struct, the response codes
// and node.Stats — which rides inside every frame's type descriptor and
// grows by appended fields — so a renamed, retyped or reordered field on
// either struct is a diff here. Regenerated when response lost the TopK
// field of the retired top-k op, and the "topK" frame with it.
const goldenRespStream = "" +
	"63ff8b03010108726573706f6e736501ff8c0001080103536571010600010443" +
	"6f64650106000103457272010c00010349447301ff84000107526573756c7473" +
	"01ff92000105537461747301ff94000103446f6301ff820001054b6e6f776e01" +
	"0200000016ff83020101085b5d75696e74333201ff84000106000020ff910201" +
	"01115b5d5b5d636f72652e4e65696768626f7201ff920001ff9000000dff8f02" +
	"0102ff900001ff8e000026ff8d030101084e65696768626f7201ff8e00010201" +
	"0249440106000104446973740108000000fe0158ff9303010105537461747301" +
	"ff9400011401095374617469634c656e010400010844656c74614c656e010400" +
	"01084361706163697479010400010744656c6574656401040001064d65726765" +
	"73010400010d4d65726765496e466c6967687401020001104d6572676550656e" +
	"64696e67526f7773010400010c4c6173744d65726765447572010400010c546f" +
	"74616c4d657267654e530104000108496e736572744e53010400010b4d656d6f" +
	"72794279746573010400010a50657273697374457272010c00010e5365617263" +
	"686573536572766564010600010d496e7365727473536572766564010600010d" +
	"44656c65746573536572766564010600010e57414c417070656e645035304e53" +
	"010400010e57414c417070656e645039394e53010400010d57414c4673796e63" +
	"5035304e53010400010d57414c4673796e635039394e53010400010b46616d69" +
	"6c794279746573010400000026ff8103010106566563746f7201ff8200010201" +
	"0349647801ff8400010356616c01ff8600000017ff85020101095b5d666c6f61" +
	"74333201ff86000108000009ff8c010105000100000bff8c0102010104000100" +
	"0025ff8c0103010201187472616e73706f72743a20756e6b6e6f776e206f7020" +
	"393903000100000bff8c0104010304000100000eff8c01050303000107020001" +
	"000023ff8c0106040302010301fed03f00010901fee03f000001010101fef43f" +
	"0001000100003aff8c0107050102010401060108010a0101010e011001120114" +
	"011601096469736b2066756c6c010d010e010f01200122012401260128000100" +
	"0017ff8c0108050001010201050102fee03ffed03f00010100"

// checkGolden encodes frames on one encoder and requires the byte-exact
// golden stream, then decodes the golden bytes back into fresh values of
// the same type and requires the canonical frames — so both directions of
// the layout are pinned.
func checkGolden[T any](t *testing.T, stream string, frames []golden[T]) {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, g := range frames {
		if err := enc.Encode(g.frame); err != nil {
			t.Fatal(err)
		}
	}
	if got := hex.EncodeToString(buf.Bytes()); got != stream {
		t.Fatalf("wire frame encoding changed; this breaks mixed-version clusters.\ngot:  %s\nwant: %s",
			got, stream)
	}
	raw, err := hex.DecodeString(stream)
	if err != nil {
		t.Fatal(err)
	}
	dec := gob.NewDecoder(bytes.NewReader(raw))
	for _, g := range frames {
		var back T
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("%s: decoding golden bytes: %v", g.name, err)
		}
		if !reflect.DeepEqual(back, g.frame) {
			t.Fatalf("%s: golden bytes decode to %+v, want %+v", g.name, back, g.frame)
		}
	}
}

// TestWireFramesGolden pins both frame structs to their golden streams.
func TestWireFramesGolden(t *testing.T) {
	t.Run("request", func(t *testing.T) { checkGolden(t, goldenStream, goldenRequests()) })
	t.Run("response", func(t *testing.T) { checkGolden(t, goldenRespStream, goldenResponses(t)) })
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
			// gob decodes an empty slice as nil; normalize before the
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

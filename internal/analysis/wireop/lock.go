package wireop

// TransportLock is the append-only contract of plsh/internal/transport's
// wire protocol as of protocol revision v2 (searchParams.Routing). It
// mirrors — at the source level — exactly what the golden-bytes test in
// wire_golden_test.go pins at the byte level. Extending the protocol is
// a two-line change reviewed together: append the op/field in wire.go,
// append the matching lock entry here. Anything else (insertion,
// reorder, renumber, type change, removal) fails plsh-vet. Retiring an
// op is not a removal: opQueryBatch and opQueryTopK are no longer served
// or emitted, but their constants, their numbers 2 and 3, and the
// request.K / response.TopK fields they used stay locked here, so the
// numbers are never reused and the gob frame layout never shifts.
var TransportLock = Lock{
	Path: "plsh/internal/transport",
	Consts: []ConstLock{
		{
			TypeName: "op",
			Values: []NameValue{
				{"opInsert", 1},
				{"opQueryBatch", 2},
				{"opQueryTopK", 3},
				{"opDelete", 4},
				{"opMerge", 5},
				{"opRetire", 6},
				{"opStats", 7},
				{"opCancel", 8},
				{"opFlush", 9},
				{"opSave", 10},
				{"opSearch", 11},
				{"opDoc", 12},
			},
		},
		{
			TypeName: "respCode",
			Values: []NameValue{
				{"codeOK", 0},
				{"codeFull", 1},
				{"codeError", 2},
				{"codeNotFound", 3},
			},
		},
	},
	Structs: []StructLock{
		{
			TypeName: "searchParams",
			Fields: []FieldLock{
				{"Version", "uint8"},
				{"Radius", "float64"},
				{"K", "int"},
				{"MaxCandidates", "int"},
				{"Routing", "uint8"},
			},
		},
		{
			TypeName: "request",
			Fields: []FieldLock{
				{"Seq", "uint64"},
				{"Op", "op"},
				{"Vectors", "[]plsh/internal/sparse.Vector"},
				{"ID", "uint32"},
				{"K", "int"},
				{"Search", "*searchParams"},
				{"Deadline", "int64"},
			},
		},
		{
			TypeName: "response",
			Fields: []FieldLock{
				{"Seq", "uint64"},
				{"Code", "respCode"},
				{"Err", "string"},
				{"IDs", "[]uint32"},
				{"Results", "[][]plsh/internal/core.Neighbor"},
				{"TopK", "[]plsh/internal/core.Neighbor"},
				{"Stats", "plsh/internal/node.Stats"},
				{"Doc", "plsh/internal/sparse.Vector"},
				{"Known", "bool"},
			},
		},
	},
}

package node

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"plsh/internal/core"
	"plsh/internal/lshhash"
	"plsh/internal/oracle"
	"plsh/internal/sparse"
)

// The operations FuzzNodeOps reads, one a two-byte op. A first byte below
// 0x80 picks from the first table: its remainder by fuzzOps is the
// operation, and its quotient (mod) and the second byte (arg) parameterize
// it. A first byte from 0x80 up picks entry (byte-0x80) % fuzzHighOps of
// the second table, parameterized by arg alone, so 0x80+i names entry i
// however many entries follow it. An operation is added to the second
// table, never the first: that leaves every committed seed decoding as it
// did.
const (
	fuzzInsert = iota // a batch of 1 + arg%16 corpus rows
	fuzzDelete        // row arg % (rows+2): the last two were never inserted
	fuzzMerge         // MergeNow
	fuzzRetire        // Retire
	fuzzSave          // Save
	fuzzReopen        // Close, then Open
	fuzzSearch        // corpus row arg as the query; mod picks K and radius
	fuzzOps
)

// The second table, first bytes from 0x80 up.
const (
	fuzzBackup = fuzzOps + iota // 0x80: SaveTo a fresh directory, Close, then Open the copy
	fuzzAllOps
	fuzzHighOps = fuzzAllOps - fuzzOps
)

// fuzzOp decodes an op's first byte into the operation and its mod.
func fuzzOp(b byte) (op, mod int) {
	if b < 0x80 {
		return int(b) % fuzzOps, int(b) / fuzzOps
	}
	return fuzzOps + int(b-0x80)%fuzzHighOps, 0
}

// fuzzCapacity keeps a fuzzed node small enough to fill: η·C is 19 rows, so
// a handful of inserts starts a background merge, and a few dozen reach
// ErrFull.
const fuzzCapacity = 192

// FuzzNodeOps drives a durable node through the operations its input spells
// out — inserts, deletes, MergeNow, Retire, Save, Close and reopen, a backup
// restored (SaveTo into a fresh directory, Close, and Open on the copy),
// searches at several K and radii — with merges also starting on their own.
// Every answer must equal internal/oracle's exactly, whether the node is
// answering from its delta chain, a merged index, a merge in flight, a
// recovered directory or a restored backup; the row counts, ErrFull and
// ErrNotFound must match the mirror too. After the last op every row,
// deleted or not, is a query at a wide radius, so a candidate lost or
// resurrected anywhere shows. The committed corpus
// (testdata/fuzz/FuzzNodeOps) runs in tier-1; fuzz with
//
//	go test -run '^$' -fuzz FuzzNodeOps -fuzztime 60s ./internal/node
func FuzzNodeOps(f *testing.F) {
	pool := testDocs(256, 61)
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := durableConfig(t.TempDir(), fuzzCapacity)
		n, err := Open(bg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if n == nil {
				return // a reopen failed
			}
			if err := n.Close(); err != nil {
				t.Error(err)
			}
		}()
		fam, err := lshhash.NewFamily(cfg.Params)
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.New(fam)
		var rows []sparse.Vector // what the oracle mirrors, by ID
		next := 0                // the pool row the next insert starts at

		search := func(step int, q sparse.Vector, p SearchParams) {
			t.Helper()
			got, err := n.SearchAppend(bg, nil, q, p)
			if err != nil {
				t.Fatalf("op %d: search: %v", step, err)
			}
			want, _ := o.Answers(q, cmp.Or(p.Radius, cfg.Query.Radius), p.K)
			if !slices.EqualFunc(got, want, func(a core.Neighbor, b oracle.Neighbor) bool { return a == core.Neighbor(b) }) {
				t.Fatalf("op %d: search %+v over %d rows:\n got %v\nwant %v", step, p, len(rows), got, want)
			}
		}
		for step := 0; step+1 < len(ops); step += 2 {
			op, mod := fuzzOp(ops[step])
			arg := int(ops[step+1])
			switch op {
			case fuzzInsert:
				batch := make([]sparse.Vector, 1+arg%16)
				for i := range batch {
					batch[i] = pool[(next+i)%len(pool)]
				}
				_, err := n.Insert(bg, batch)
				if full := len(rows)+len(batch) > fuzzCapacity; full != errors.Is(err, ErrFull) || (!full && err != nil) {
					t.Fatalf("op %d: insert of %d at %d rows: %v", step, len(batch), len(rows), err)
				}
				if err == nil {
					rows = append(rows, batch...)
					o.Add(batch...)
					next += len(batch)
				}
			case fuzzDelete:
				id := arg % (len(rows) + 2)
				err := n.Delete(uint32(id))
				if known := id < len(rows); known != (err == nil) || (!known && !errors.Is(err, ErrNotFound)) {
					t.Fatalf("op %d: delete %d of %d rows: %v", step, id, len(rows), err)
				}
				if err == nil {
					o.Delete(uint32(id))
				}
			case fuzzMerge:
				if err := n.MergeNow(bg); err != nil {
					t.Fatalf("op %d: MergeNow: %v", step, err)
				}
				if n.StaticLen() != len(rows) {
					t.Fatalf("op %d: MergeNow left %d of %d rows static", step, n.StaticLen(), len(rows))
				}
			case fuzzRetire:
				if err := n.Retire(bg); err != nil {
					t.Fatalf("op %d: Retire: %v", step, err)
				}
				rows, o = nil, oracle.New(fam)
			case fuzzSave:
				if err := n.Save(bg); err != nil {
					t.Fatalf("op %d: Save: %v", step, err)
				}
				if n.StaticLen() != len(rows) {
					t.Fatalf("op %d: Save left %d of %d rows static", step, n.StaticLen(), len(rows))
				}
			case fuzzReopen, fuzzBackup:
				if op == fuzzBackup {
					backup := t.TempDir()
					if err := n.SaveTo(bg, backup); err != nil {
						t.Fatalf("op %d: SaveTo: %v", step, err)
					}
					if n.StaticLen() != len(rows) {
						t.Fatalf("op %d: SaveTo left %d of %d rows static", step, n.StaticLen(), len(rows))
					}
					cfg.Dir = backup
				}
				if err := n.Close(); err != nil {
					t.Fatalf("op %d: Close: %v", step, err)
				}
				if n, err = Open(bg, cfg); err != nil {
					t.Fatalf("op %d: reopen: %v", step, err)
				}
			case fuzzSearch:
				p := SearchParams{K: []int{0, 1, 3, 10}[mod%4], Radius: []float64{0, 1.2, 1.45}[mod/4%3]}
				search(step, pool[arg%len(pool)], p)
			}
			if n.Len() != len(rows) {
				t.Fatalf("op %d: node holds %d rows, mirror %d", step, n.Len(), len(rows))
			}
			if pe := n.Stats().PersistErr; pe != "" {
				t.Fatalf("op %d: persist error: %s", step, pe)
			}
		}
		for _, q := range rows {
			search(len(ops), q, SearchParams{Radius: 1.45})
		}
	})
}

package node

import (
	"os"
	"testing"

	"plsh/internal/core"
	"plsh/internal/corpus"
	"plsh/internal/lshhash"
	"plsh/internal/persist"
	"plsh/internal/sparse"
)

// suiteRows is the row count of the benchmark suite's ladder, whose
// persist rungs checkpoint and re-read a node of that many documents.
const suiteRows = 52000

// suiteNode is a quiesced node of the benchmark suite's geometry — K 16,
// M 16 (120 tables) over the tweet corpus of a 50 000-word vocabulary —
// holding rows documents, every one in the static index and one in 97
// tombstoned.
func suiteNode(b *testing.B, rows int) *Node {
	b.Helper()
	cfg := testConfig(2 * rows)
	cfg.Params = lshhash.Params{Dim: 50000, K: 16, M: 16, Seed: 1}
	cfg.AutoMerge = false
	n, err := Open(bg, cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := corpus.Generate(corpus.Twitter(rows, cfg.Params.Dim, 1))
	docs := make([]sparse.Vector, rows)
	for i := range docs {
		docs[i] = c.Mat.Row(i)
	}
	if _, err := n.Insert(bg, docs); err != nil {
		b.Fatal(err)
	}
	for id := 0; id < rows; id += 97 {
		if err := n.Delete(uint32(id)); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.MergeNow(bg); err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkSave measures snapshot serialization: a quiesced node of the
// suite's geometry at the ladder's 52 000 rows is checkpointed to disk
// repeatedly, reporting the time a row takes, snapshot megabytes per
// second and the file's bytes a row.
func BenchmarkSave(b *testing.B) {
	n := suiteNode(b, suiteRows)
	dir := b.TempDir()
	for b.Loop() {
		if err := n.SaveTo(bg, dir); err != nil {
			b.Fatal(err)
		}
	}
	fi, err := os.Stat(persist.SnapshotPath(dir))
	if err != nil {
		b.Fatal(err)
	}
	mb := float64(fi.Size()) / (1 << 20)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*suiteRows), "ns/row")
	b.ReportMetric(mb*float64(b.N)/b.Elapsed().Seconds(), "snapshot-MB/s")
	b.ReportMetric(float64(fi.Size())/suiteRows, "B/row")
}

// BenchmarkReadSnapshot measures loading what BenchmarkSave writes: the
// file read, checked and decoded (persist.ReadSnapshot) and its tables
// reassembled into an index (core.StaticFromTables), reported as the time a
// row takes — megabytes per second would reward a larger file.
func BenchmarkReadSnapshot(b *testing.B) {
	n := suiteNode(b, suiteRows)
	dir := b.TempDir()
	if err := n.SaveTo(bg, dir); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		snap, err := persist.ReadSnapshot(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.StaticFromTables(n.fam, snap.Rows, snap.Tables, n.cfg.Build.Workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*suiteRows), "ns/row")
}

// BenchmarkRecover measures crash recovery when everything lives in the
// journal (the worst case: no snapshot to load, every document replayed
// and rehashed into delta segments), reporting replayed documents per
// second.
func BenchmarkRecover(b *testing.B) {
	const nDocs = 10000
	dir := b.TempDir()
	cfg := testConfig(2 * nDocs)
	cfg.Dir = dir
	cfg.AutoMerge = false // keep every write in the journal
	n, err := Open(bg, cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := testDocs(nDocs, 5)
	for off := 0; off < nDocs; off += 500 {
		if _, err := n.Insert(bg, docs[off:off+500]); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		re, err := Open(bg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if re.Len() != nDocs {
			b.Fatalf("recovered %d docs", re.Len())
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nDocs)*float64(b.N)/b.Elapsed().Seconds(), "replay-docs/s")
}

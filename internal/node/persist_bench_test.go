package node

import (
	"os"
	"testing"

	"plsh/internal/persist"
)

// BenchmarkSave measures snapshot serialization: a quiesced 20k-document
// node is checkpointed to disk repeatedly, reporting throughput in
// snapshot megabytes per second.
func BenchmarkSave(b *testing.B) {
	n, err := Open(bg, testConfig(30000))
	if err != nil {
		b.Fatal(err)
	}
	docs := testDocs(20000, 3)
	if _, err := n.Insert(bg, docs); err != nil {
		b.Fatal(err)
	}
	if err := n.MergeNow(bg); err != nil {
		b.Fatal(err)
	}
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
	b.ReportMetric(mb*float64(b.N)/b.Elapsed().Seconds(), "snapshot-MB/s")
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

package histo

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketGeometry checks the index/bound pair on every representable
// boundary: each bucket's max really is the largest value mapping to it,
// and indices are monotone in the value.
func TestBucketGeometry(t *testing.T) {
	last := -1
	for exp := 0; exp < 64; exp++ {
		for _, off := range []uint64{0, 1} {
			v := uint64(1)<<uint(exp) + off - 1
			if v == 0 && off == 0 && exp > 0 {
				continue
			}
			i := bucketIndex(v)
			if i < last {
				t.Fatalf("bucketIndex not monotone: v=%d -> %d after %d", v, i, last)
			}
			last = i
			if mx := bucketMax(i); v > mx {
				t.Fatalf("value %d maps to bucket %d whose max is %d", v, i, mx)
			}
		}
	}
	if i := bucketIndex(^uint64(0)); i != nBuckets-1 {
		t.Fatalf("max uint64 maps to bucket %d, want %d", i, nBuckets-1)
	}
	if mx := bucketMax(nBuckets - 1); mx != ^uint64(0) {
		t.Fatalf("last bucket max = %d, want max uint64", mx)
	}
}

// TestQuantileErrorBound records a deterministic heavy-tailed sample and
// checks every reported quantile against the exact order statistic: the
// histogram answer must be >= the true value (pessimistic) and within the
// 2^-subBits relative quantization error.
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	vals := make([]uint64, 20000)
	for i := range vals {
		v := uint64(rng.Int63n(1 << uint(8+rng.Intn(30))))
		vals[i] = v
		h.Record(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := vals[idx]
		got := uint64(h.Quantile(q))
		if got < exact {
			t.Errorf("q=%g: histogram %d < exact %d (quantile understates)", q, got, exact)
		}
		if maxErr := exact >> subBits; got > exact+maxErr+1 {
			t.Errorf("q=%g: histogram %d exceeds exact %d by more than 2^-%d relative error", q, got, exact, subBits)
		}
	}
}

func TestEmptyAndSmall(t *testing.T) {
	var h Histogram
	if h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(7)
	if got := h.Quantile(1); got != 7 {
		t.Fatalf("single exact-range value: quantile %d, want 7", got)
	}
	h.Record(-time.Second) // clock step: clamps to 0, must not panic
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
}

// The q-quantile is the ⌈q·n⌉-th smallest value, not the nearest rank: of
// ten exact values 1…10 ns, q = 0.21 names the third (⌈2.1⌉ = 3).
func TestQuantileTakesCeilingRank(t *testing.T) {
	var h Histogram
	for v := 1; v <= 10; v++ {
		h.Record(time.Duration(v))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.1, 1}, {0.11, 2}, {0.21, 3}, {0.5, 5}, {0.51, 6}, {1, 10}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("q=%g over 1…10 ns: %d ns, want %d", c.q, got, c.want)
		}
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines (run
// under -race in CI) and checks nothing is lost: the count is exact
// even though quantile reads race the writers.
func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*1000 + i))
				if i%512 == 0 {
					_ = h.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count %d, want %d", h.Count(), workers*per)
	}
}

// TestRecordDoesNotAllocate pins the zero-alloc record path: the WAL
// records into a histogram on every append.
func TestRecordDoesNotAllocate(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345 * time.Nanosecond) }); n != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", n)
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}

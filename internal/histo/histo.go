// Package histo provides a fixed-footprint log-linear latency histogram
// whose record path is wait-free and allocation-free: one bucket-index
// computation (two shifts and a bits.Len64) plus two atomic adds. That is
// what lets the soak harness and the WAL keep per-operation latency
// distributions on hot paths that must not allocate
// (TestRecordDoesNotAllocate pins it).
//
// Geometry: values are nanoseconds. The first 2^subBits buckets are exact
// (one bucket per nanosecond); above that, each power-of-two range splits
// into 2^subBits equal sub-buckets, bounding the relative quantization
// error of any recorded value by 1/2^subBits (~3% at subBits=5). All of
// uint64 is representable, so nothing is ever clamped or dropped. The
// whole histogram is a flat value type (~15 KiB) that can be embedded and
// read concurrently with writers; quantiles read the buckets atomically
// but are not a consistent snapshot — fine for monitoring, where the
// distribution dwarfs any in-flight increment.
package histo

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits is the sub-bucket resolution: 2^subBits sub-buckets per
	// power-of-two range, so quantile error is bounded by 2^-subBits.
	subBits = 5
	subs    = 1 << subBits
	// nBuckets covers every uint64: the exact range [0, subs) plus one
	// block of subs sub-buckets for each of the 64-subBits+... exponents.
	nBuckets = (64 - subBits + 1) * subs
)

// Histogram is a concurrent log-linear histogram of nanosecond values.
// The zero value is ready to use. Copying a Histogram that has ever been
// recorded to is not supported (it embeds atomics); embed it by value and
// share a pointer.
type Histogram struct {
	count   atomic.Uint64
	buckets [nBuckets]atomic.Uint64
}

// bucketIndex maps a nanosecond value to its bucket. Values below subs
// map exactly; larger values land in the sub-bucket whose range holds
// them.
func bucketIndex(v uint64) int {
	if v < subs {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // 2^exp <= v < 2^(exp+1)
	sub := (v >> (uint(exp) - subBits)) & (subs - 1)
	return (exp-subBits)*subs + subs + int(sub)
}

// bucketMax is the largest value bucket i holds — what Quantile reports,
// so quantiles err on the pessimistic (larger) side, never understating a
// tail.
func bucketMax(i int) uint64 {
	if i < subs {
		return uint64(i)
	}
	block := i/subs - 1 // exponent block above the exact range
	exp := uint(block + subBits)
	sub := uint64(i % subs)
	lower := uint64(1)<<exp | sub<<(exp-subBits)
	return lower + 1<<(exp-subBits) - 1
}

// Record adds one observation. Negative durations count as zero (clock
// steps happen; a poisoned bucket index must not).
func (h *Histogram) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of the
// recorded distribution: the max value of the bucket holding the
// ceil(q·count)-th smallest observation. Empty histograms report 0.
// Concurrent recording skews the answer by at most the in-flight
// increments.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			return time.Duration(bucketMax(i))
		}
	}
	// Recorders raced ahead of the bucket walk; the tail bucket we saw
	// last is still the best answer available.
	return time.Duration(bucketMax(nBuckets - 1))
}

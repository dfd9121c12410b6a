package main

import (
	"math"
	"math/bits"
)

// hist is a latency histogram in nanoseconds.  Values below 128 have a
// bucket each; above, every power of two is split into 128 buckets, so
// a bucket is at most 1/128 of its value wide and a reported quantile
// (the bucket midpoint) is within 0.4 % of the sample.  Its size is
// fixed, so the benchmark's own memory does not grow with throughput.
type hist struct {
	counts [64 << subBits]uint32
	n      uint64
}

const subBits = 7

func bucketOf(v int64) int {
	if v < 1<<subBits {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketMid is the midpoint of bucket b.
func bucketMid(b int) float64 {
	if b < 1<<subBits {
		return float64(b)
	}
	e := b>>subBits - 1
	lo := int64(b&(1<<subBits-1)+1<<subBits) << e
	return float64(lo) + float64(int64(1)<<e)/2
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(rank(q, int(h.n)))
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(len(h.counts) - 1)
}

// rank is the 1-based nearest rank of the q-quantile of n samples.  The
// epsilon keeps q*n from rounding up past an exact integer.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

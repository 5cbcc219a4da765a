package obs

import "math/bits"

// Log-bucket arithmetic, the one copy of it. Every distribution the
// simulator keeps — registry histograms, the profiler's per-component
// dispatch latencies, the lake's fabric-wide FCT quantiles — counts
// values in power-of-two buckets: bucket i holds 2^(i-1) <= v < 2^i,
// bucket 0 holds v <= 0 and v == 1 lands in bucket 1. Accumulators are
// dense arrays indexed by BucketOf; artifacts and merges use the sparse
// form, ascending exclusive upper bounds (le) beside their nonzero counts.

// BucketOf returns the bucket v falls in among n buckets; values past
// the last bound saturate into bucket n-1.
func BucketOf(v int64, n int) int {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	if b >= n {
		b = n - 1
	}
	return b
}

// BucketLe is bucket i's exclusive upper bound, saturating at MaxInt64
// for the overflow bucket.
func BucketLe(i int) int64 {
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(i)
}

// SparseBuckets converts dense bucket counts to the sparse form, eliding
// empty buckets.
func SparseBuckets(dense []int64) (le, counts []int64) {
	for i, c := range dense {
		if c != 0 {
			le, counts = append(le, BucketLe(i)), append(counts, c)
		}
	}
	return le, counts
}

// MergeSparse merges two sparse bucket lists into a fresh one, summing
// counts on shared bounds.
func MergeSparse(le, counts, le2, counts2 []int64) ([]int64, []int64) {
	var mle, mcounts []int64
	i, j := 0, 0
	for i < len(le) || j < len(le2) {
		switch {
		case j >= len(le2) || (i < len(le) && le[i] < le2[j]):
			mle, mcounts = append(mle, le[i]), append(mcounts, counts[i])
			i++
		case i >= len(le) || le2[j] < le[i]:
			mle, mcounts = append(mle, le2[j]), append(mcounts, counts2[j])
			j++
		default:
			mle, mcounts = append(mle, le[i]), append(mcounts, counts[i]+counts2[j])
			i, j = i+1, j+1
		}
	}
	return mle, mcounts
}

// SparseQuantile returns an upper bound for the p-quantile of a sparse
// bucket list — the bound of the bucket holding the value of rank
// floor(p*n) — or 0 if it is empty.
func SparseQuantile(le, counts []int64, p float64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := int64(p * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return le[i]
		}
	}
	return le[len(le)-1]
}

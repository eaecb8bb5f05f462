// Package bloom implements the probabilistic set structures §7.4 proposes
// for disseminating revocations: a Bloom filter with optimal hash-count
// sizing (no false negatives, tunable false positives), and the
// Golomb-compressed set (GCS) variant Langley suggested, which approaches
// the information-theoretic lower bound of log2(1/p) bits per entry where
// the Bloom filter needs 1.44×log2(1/p).
package bloom

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Filter is a Bloom filter. Construct with New or NewOptimal.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // hash functions
	n    int    // inserted elements
}

// New creates a filter with m bits and k hash functions.
func New(mBits uint64, k int) *Filter {
	if mBits == 0 || k <= 0 {
		panic("bloom: filter needs positive size and hash count")
	}
	return &Filter{
		bits: make([]uint64, (mBits+63)/64),
		m:    mBits,
		k:    k,
	}
}

// OptimalK returns the false-positive-minimizing hash count for a filter
// of mBits holding n elements: ceil(m/n · ln 2) — the formula the paper
// uses in §7.4.
func OptimalK(mBits uint64, n int) int {
	if n <= 0 {
		return 1
	}
	k := int(math.Ceil(float64(mBits) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// NewOptimal creates a filter of mBytes bytes sized for expectedN
// insertions with the optimal hash count.
func NewOptimal(mBytes int, expectedN int) *Filter {
	mBits := uint64(mBytes) * 8
	return New(mBits, OptimalK(mBits, expectedN))
}

// hashPair derives two independent 64-bit hashes of item; probe i uses
// h1 + i·h2 (Kirsch–Mitzenmacher double hashing).
func hashPair(item []byte) (uint64, uint64) {
	sum := sha256.Sum256(item)
	h1 := binary.BigEndian.Uint64(sum[0:8])
	h2 := binary.BigEndian.Uint64(sum[8:16]) | 1 // odd, to cover all residues
	return h1, h2
}

// Add inserts item.
func (f *Filter) Add(item []byte) {
	h1, h2 := hashPair(item)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
	f.n++
}

// Contains reports whether item may be in the set. False positives occur
// at roughly FalsePositiveRate; false negatives never do.
func (f *Filter) Contains(item []byte) bool {
	h1, h2 := hashPair(item)
	for i := 0; i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the serialized payload size (bit array only).
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// FalsePositiveRate returns the theoretical rate for the current fill:
// (1 - e^(-kn/m))^k.
func (f *Filter) FalsePositiveRate() float64 {
	return EstimateFPR(f.m, f.n, f.k)
}

// EstimateFPR computes the theoretical false-positive rate of an m-bit
// filter with n elements and k hashes — the quantity plotted on Figure
// 11's y-axis.
func EstimateFPR(mBits uint64, n, k int) float64 {
	if n == 0 {
		return 0
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(mBits)), float64(k))
}

// CapacityAtFPR returns the largest n an m-bit filter can hold while
// keeping its (optimally-hashed) false-positive rate at or below p.
func CapacityAtFPR(mBits uint64, p float64) int {
	if p <= 0 || p >= 1 {
		panic("bloom: p must be in (0,1)")
	}
	// m/n = -log2(p)/ln2  =>  n = m·ln2²/(-ln p)
	n := float64(mBits) * math.Ln2 * math.Ln2 / (-math.Log(p))
	return int(n)
}

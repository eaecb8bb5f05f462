package bloom

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
)

// GCS is a Golomb-compressed set: the sorted hashes of n items mapped into
// [0, n·P) and delta-encoded with Golomb-Rice codes. Queries decode the
// whole stream (CRLSet-style payloads are small enough that this is what
// Chromium's own GCS sketch does); membership has false-positive rate
// ~1/P and no false negatives.
type GCS struct {
	data []byte
	n    uint64
	p    uint64 // inverse false-positive rate, a power of two
	rice uint   // Rice parameter log2(p)
}

// BuildGCS constructs a set over items with inverse false-positive rate
// invFPR (rounded up to a power of two).
func BuildGCS(items [][]byte, invFPR uint64) *GCS {
	if invFPR < 2 {
		invFPR = 2
	}
	p := uint64(1) << uint(bits.Len64(invFPR-1)) // next power of two
	n := uint64(len(items))
	g := &GCS{n: n, p: p, rice: uint(bits.TrailingZeros64(p))}
	if n == 0 {
		return g
	}
	domain := n * p
	hashes := make([]uint64, 0, n)
	for _, item := range items {
		hashes = append(hashes, gcsHash(item)%domain)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })

	w := &bitWriter{}
	var prev uint64
	for _, h := range hashes {
		delta := h - prev
		prev = h
		// Rice code: quotient in unary, remainder in rice bits.
		q := delta >> g.rice
		for ; q > 0; q-- {
			w.writeBit(1)
		}
		w.writeBit(0)
		w.writeBits(delta&(p-1), g.rice)
	}
	g.data = w.bytes()
	return g
}

func gcsHash(item []byte) uint64 {
	sum := sha256.Sum256(item)
	return binary.BigEndian.Uint64(sum[:8])
}

// Contains reports whether item may be in the set.
func (g *GCS) Contains(item []byte) bool {
	if g.n == 0 {
		return false
	}
	target := gcsHash(item) % (g.n * g.p)
	r := &bitReader{data: g.data}
	var cur uint64
	for i := uint64(0); i < g.n; i++ {
		var q uint64
		for {
			b, ok := r.readBit()
			if !ok {
				return false
			}
			if b == 0 {
				break
			}
			q++
		}
		rem, ok := r.readBits(g.rice)
		if !ok {
			return false
		}
		cur += q<<g.rice | rem
		if cur == target {
			return true
		}
		if cur > target {
			return false
		}
	}
	return false
}

// SizeBytes returns the encoded payload size.
func (g *GCS) SizeBytes() int { return len(g.data) }

// FalsePositiveRate returns the design rate 1/P.
func (g *GCS) FalsePositiveRate() float64 { return 1 / float64(g.p) }

// BitsPerEntry reports the achieved storage cost; the theoretical optimum
// is log2(P) + ~1.5 bits.
func (g *GCS) BitsPerEntry() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.data)*8) / float64(g.n)
}

// TheoreticalGCSBits returns the expected bits/entry of a GCS at inverse
// false-positive rate p, versus a Bloom filter's 1.44·log2(p).
func TheoreticalGCSBits(invFPR float64) float64 {
	return math.Log2(invFPR) + 1.5
}

type bitWriter struct {
	buf  []byte
	nbit uint
}

func (w *bitWriter) writeBit(b uint64) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.nbit%8)
	}
	w.nbit++
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit((v >> uint(i)) & 1)
	}
}

func (w *bitWriter) bytes() []byte { return w.buf }

type bitReader struct {
	data []byte
	pos  uint
}

func (r *bitReader) readBit() (uint64, bool) {
	if r.pos >= uint(len(r.data))*8 {
		return 0, false
	}
	b := (r.data[r.pos/8] >> (7 - r.pos%8)) & 1
	r.pos++
	return uint64(b), true
}

func (r *bitReader) readBits(n uint) (uint64, bool) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, ok := r.readBit()
		if !ok {
			return 0, false
		}
		v = v<<1 | b
	}
	return v, true
}

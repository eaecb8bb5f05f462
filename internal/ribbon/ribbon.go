// Package ribbon implements a BuRR-style (Bumped Ribbon Retrieval)
// static filter: each key stores an r-bit fingerprint in a linear system
// C·Z = F over GF(2), where a key's row C(k) is a narrow 64-bit window of
// coefficient bits at a hashed start position. The system is solved once
// at build time by banded Gaussian elimination (insertion keeps each
// row's leading one as a pivot; back-substitution fills the solution Z),
// and a probe recomputes the row, dot-products it against Z and compares
// the retrieved bits with the key's recomputed fingerprint.
//
// For a member key the retrieved bits always equal the fingerprint — no
// false negatives, ever. For a non-member the match probability is 2^-r.
// That is the same contract as a Bloom filter at k = r, but the ribbon
// stores ~1.1·r bits per key instead of Bloom's 1.44·r (and instead of
// the ~2.9·r of a half-full publisher Bloom sized for future growth),
// which is what makes it the succinct level representation behind
// internal/cascade.
//
// # Buckets
//
// Keys are split by hash into fixed-size buckets, each an independent
// little linear system. Buckets buy two things: build time stays linear
// (no giant band matrix), and — critically for the cascade's daily delta
// chain — a key only influences the bytes of its own bucket, so a
// publisher that re-solves after churn produces a byte diff proportional
// to the churn, not to the filter.
//
// # Bumping
//
// A banded system can be unsolvable for an unlucky bucket (too many rows
// land on the same pivots). Such rows are *bumped*: Build returns their
// 64-bit key hashes and the caller stores them in an exact side list that
// forces "contains" for those keys. Bumping therefore never causes a
// false negative; a side-list hash collision is just one more false
// positive, which the next cascade level captures like any other. With
// the default ~12% slot slack bumps are rare (well under 0.1% of keys).
//
// Probes are zero-alloc and read the solution through plain byte-slice
// windows, so a decoded filter can alias an mmap'd artifact directly.
package ribbon

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

const (
	// window is the coefficient band width: each key's row spans 64
	// consecutive slots starting at its hashed position.
	window = 64
	// minSlots is the smallest legal bucket: the start range
	// [0, slots-window] must be non-empty with a little headroom.
	minSlots = 72
	// bucketLoad is the target key count per bucket.
	bucketLoad = 280
	// headerLen frames an encoded filter: rBits, a zero pad byte,
	// slots u32, nBuckets u32.
	headerLen = 1 + 1 + 4 + 4
	// maxEncodedSlots / maxEncodedBuckets bound hostile headers.
	maxEncodedSlots   = 1 << 20
	maxEncodedBuckets = 1 << 24
)

// Filter is a built (or decoded) ribbon filter. It is immutable and safe
// for concurrent use; sol may alias the buffer handed to DecodePrefix.
type Filter struct {
	rBits      uint8
	slots      uint32 // per bucket, multiple of 8, ≥ minSlots
	nBuckets   uint32
	planeBytes int    // slots/8 + 1 pad byte so window loads stay in range
	sol        []byte // nBuckets × rBits planes of planeBytes each
}

// geometry picks the bucket layout for n keys: enough buckets to hold
// ~bucketLoad keys each, and per-bucket slots with ~12.5% slack (floor
// 16) so the banded systems solve with only rare bumps.
func geometry(n int) (slots, nBuckets uint32) {
	if n < 1 {
		n = 1
	}
	nb := (n + bucketLoad - 1) / bucketLoad
	avg := (n + nb - 1) / nb
	extra := avg / 8
	if extra < 16 {
		extra = 16
	}
	s := (avg + extra + 7) &^ 7
	if s < minSlots {
		s = minSlots
	}
	return uint32(s), uint32(nb)
}

// EstimateBytes returns the encoded size a Build over n keys will
// produce (excluding bumped side-list entries, which are rare). The
// formula is deterministic, so callers can select between level
// representations without building both.
func EstimateBytes(n, rBits int) int {
	slots, nBuckets := geometry(n)
	planeBytes := int(slots)/8 + 1
	return headerLen + int(nBuckets)*rBits*planeBytes
}

// row is a key's reduced position in its bucket's linear system.
type row struct {
	bucket uint32
	start  uint32
	coeff  uint64
	fp     uint8
	h64    uint64
}

// Digest is sha256(salt‖key): the one preimage every filter level hashes,
// ribbon and Bloom alike. A caller that probes the same key at the same
// salt more than once keeps the digest and skips the hash: a certificate
// keeps its cascade key's level-1 digest with its identity
// (x509x.Certificate.KeyDigest), so a browser's repeat verdicts probe
// with ProbeDigest (cascade.Filter.RevokedDigest).
type Digest [sha256.Size]byte

// Sum hashes a key under a level salt. Zero allocations for keys shorter
// than 64 bytes.
func Sum(salt byte, key []byte) Digest {
	var buf [64]byte
	if len(key) >= len(buf) {
		return sha256.Sum256(append([]byte{salt}, key...))
	}
	buf[0] = salt
	copy(buf[1:], key)
	return sha256.Sum256(buf[:1+len(key)])
}

// Hash64 returns the side-list hash carried in the digest: the exact
// 64-bit identity that bumped (and publisher-stashed) keys are stored
// under.
func (d *Digest) Hash64() uint64 { return binary.LittleEndian.Uint64(d[17:25]) }

// Hash64 is Sum(salt, key).Hash64().
func Hash64(salt byte, key []byte) uint64 {
	d := Sum(salt, key)
	return d.Hash64()
}

// deriveRow derives a key's row from its digest. The digest's bytes are
// partitioned so bucket/start, coefficients, fingerprint and the
// side-list hash are independent: [0:8) start+bucket, [8:16) coefficients,
// [16] fingerprint, [17:25) side-list hash.
func deriveRow(d *Digest, rBits uint8, slots, nBuckets uint32) row {
	h1 := binary.LittleEndian.Uint64(d[0:8])
	return row{
		bucket: uint32((uint64(uint32(h1>>32)) * uint64(nBuckets)) >> 32),
		start:  uint32((uint64(uint32(h1)) * uint64(slots-window+1)) >> 32),
		coeff:  binary.LittleEndian.Uint64(d[8:16]) | 1,
		fp:     d[16] & byte(1<<rBits-1),
		h64:    d.Hash64(),
	}
}

// Build solves a ribbon filter holding an rBits-wide fingerprint for
// every key (1 ≤ rBits ≤ 8). The second return value lists the 64-bit
// hashes (Hash64) of bumped keys — rows the banded elimination could not
// place — sorted ascending and deduplicated; the caller must keep them
// in an exact side list to preserve the no-false-negative contract.
// Identical geometry and key set always produce identical bytes.
func Build(salt byte, keys [][]byte, rBits int) (*Filter, []uint64, error) {
	if rBits < 1 || rBits > 8 {
		return nil, nil, fmt.Errorf("ribbon: rBits %d outside [1,8]", rBits)
	}
	slots, nBuckets := geometry(len(keys))
	f := &Filter{
		rBits:      uint8(rBits),
		slots:      slots,
		nBuckets:   nBuckets,
		planeBytes: int(slots)/8 + 1,
	}
	f.sol = make([]byte, int(nBuckets)*rBits*f.planeBytes)

	rows := make([]row, len(keys))
	for i, k := range keys {
		d := Sum(salt, k)
		rows[i] = deriveRow(&d, f.rBits, slots, nBuckets)
	}
	// Bucket-major, then ascending start: the natural order for banded
	// elimination, and a fixed order makes the solved bytes a pure
	// function of the key set.
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.bucket != b.bucket {
			return a.bucket < b.bucket
		}
		if a.start != b.start {
			return a.start < b.start
		}
		if a.coeff != b.coeff {
			return a.coeff < b.coeff
		}
		return a.h64 < b.h64
	})

	coeffs := make([]uint64, slots)
	rhs := make([]uint8, slots)
	z := make([]uint8, slots)
	var bumped []uint64
	for lo := 0; lo < len(rows); {
		b := rows[lo].bucket
		hi := lo
		for hi < len(rows) && rows[hi].bucket == b {
			hi++
		}
		for i := range coeffs {
			coeffs[i] = 0
			rhs[i] = 0
		}
		for _, r := range rows[lo:hi] {
			if !insertRow(coeffs, rhs, r) {
				bumped = append(bumped, r.h64)
			}
		}
		backSubstitute(coeffs, rhs, z)
		f.packBucket(int(b), z)
		lo = hi
	}
	sort.Slice(bumped, func(i, j int) bool { return bumped[i] < bumped[j] })
	out := bumped[:0]
	for i, h := range bumped {
		if i == 0 || h != bumped[i-1] {
			out = append(out, h)
		}
	}
	return f, out, nil
}

// insertRow performs one step of on-the-fly banded elimination: reduce
// the row against existing pivots until it lands on a free slot (placed),
// vanishes consistently (redundant), or vanishes inconsistently (bumped).
// Every set bit of every stored row stays below len(coeffs), so the slot
// cursor never leaves the bucket.
func insertRow(coeffs []uint64, rhs []uint8, r row) bool {
	s, c, v := r.start, r.coeff, r.fp
	for {
		if coeffs[s] == 0 {
			coeffs[s] = c
			rhs[s] = v
			return true
		}
		c ^= coeffs[s]
		v ^= rhs[s]
		if c == 0 {
			return v == 0 // equal row already present → redundant, not bumped
		}
		t := bits.TrailingZeros64(c)
		c >>= uint(t)
		s += uint32(t)
	}
}

// backSubstitute solves for Z from the eliminated rows, bottom-up. Free
// slots (no pivot) are fixed to zero for canonical output.
func backSubstitute(coeffs []uint64, rhs []uint8, z []uint8) {
	for s := len(coeffs) - 1; s >= 0; s-- {
		c := coeffs[s]
		if c == 0 {
			z[s] = 0
			continue
		}
		acc := rhs[s]
		rest := c >> 1
		i := s + 1
		for rest != 0 {
			t := bits.TrailingZeros64(rest)
			i += t
			acc ^= z[i]
			rest >>= uint(t)
			rest >>= 1
			i++
		}
		z[s] = acc
	}
}

// packBucket transposes the per-slot solution bytes into rBits bit
// planes (plane j, bit s = bit j of z[s]), LSB-first within each byte so
// probes can read 64-slot windows with two little-endian loads.
func (f *Filter) packBucket(bucket int, z []uint8) {
	base := bucket * int(f.rBits) * f.planeBytes
	for j := 0; j < int(f.rBits); j++ {
		plane := f.sol[base+j*f.planeBytes : base+(j+1)*f.planeBytes]
		for s, v := range z {
			plane[s>>3] |= (v >> uint(j) & 1) << uint(s&7)
		}
	}
}

// load64 reads the 64 solution bits starting at bit position off. The
// plane's trailing pad byte guarantees the high read stays in range; a
// shift count of 64 (off on a byte boundary) is defined in Go and yields
// the zero high half.
func load64(plane []byte, off uint32) uint64 {
	byteOff := int(off >> 3)
	sh := off & 7
	lo := binary.LittleEndian.Uint64(plane[byteOff:])
	hi := uint64(plane[byteOff+8])
	return lo>>sh | hi<<(64-sh)
}

// Probe retrieves the key's bits and reports whether they match its
// recomputed fingerprint, plus the key's side-list hash so the caller
// can consult its bump/stash list without hashing again. Member keys
// always match; non-members match with probability 2^-rBits.
// Zero allocations.
func (f *Filter) Probe(salt byte, key []byte) (match bool, h64 uint64) {
	return f.ProbeDigest(Sum(salt, key))
}

// ProbeDigest is Probe for a key whose digest the caller already holds:
// Probe(salt, key) ≡ ProbeDigest(Sum(salt, key)). Zero allocations.
func (f *Filter) ProbeDigest(d Digest) (match bool, h64 uint64) {
	r := deriveRow(&d, f.rBits, f.slots, f.nBuckets)
	base := int(r.bucket) * int(f.rBits) * f.planeBytes
	got := uint8(0)
	for j := 0; j < int(f.rBits); j++ {
		w := load64(f.sol[base+j*f.planeBytes:], r.start)
		got |= uint8(bits.OnesCount64(w&r.coeff)&1) << uint(j)
	}
	return got == r.fp, r.h64
}

// Contains is Probe without the hash (for callers with no side list).
func (f *Filter) Contains(salt byte, key []byte) bool {
	m, _ := f.Probe(salt, key)
	return m
}

// EncodedLen returns the exact AppendEncode output length.
func (f *Filter) EncodedLen() int { return headerLen + len(f.sol) }

// AppendEncode appends the filter's wire form to dst: rBits, a zero
// byte, slots u32, nBuckets u32, then the solution planes.
func (f *Filter) AppendEncode(dst []byte) []byte {
	dst = append(dst, f.rBits, 0)
	dst = binary.LittleEndian.AppendUint32(dst, f.slots)
	dst = binary.LittleEndian.AppendUint32(dst, f.nBuckets)
	return append(dst, f.sol...)
}

// DecodePrefix parses an encoded filter from the front of data and
// returns it with the number of bytes consumed. The filter aliases data.
// Every field is validated — sizes are computed in int64 so a hostile
// header cannot wrap the byte count on 32-bit platforms — and the
// encoding is canonical: a decoded filter re-encodes to identical bytes
// (the pad byte and each plane's trailing pad must be zero).
func DecodePrefix(data []byte) (*Filter, int, error) {
	if len(data) < headerLen {
		return nil, 0, errors.New("ribbon: truncated header")
	}
	rBits := data[0]
	if rBits < 1 || rBits > 8 {
		return nil, 0, fmt.Errorf("ribbon: rBits %d outside [1,8]", rBits)
	}
	if data[1] != 0 {
		return nil, 0, errors.New("ribbon: nonzero pad byte")
	}
	slots := binary.LittleEndian.Uint32(data[2:])
	nBuckets := binary.LittleEndian.Uint32(data[6:])
	if slots < minSlots || slots > maxEncodedSlots || slots%8 != 0 {
		return nil, 0, fmt.Errorf("ribbon: slot count %d invalid", slots)
	}
	if nBuckets < 1 || nBuckets > maxEncodedBuckets {
		return nil, 0, fmt.Errorf("ribbon: bucket count %d invalid", nBuckets)
	}
	planeBytes := int64(slots)/8 + 1
	solLen := int64(nBuckets) * int64(rBits) * planeBytes
	if solLen > int64(len(data)-headerLen) {
		return nil, 0, errors.New("ribbon: truncated solution planes")
	}
	f := &Filter{
		rBits:      rBits,
		slots:      slots,
		nBuckets:   nBuckets,
		planeBytes: int(planeBytes),
		sol:        data[headerLen : headerLen+int(solLen)],
	}
	// Canonical: every plane's pad byte is zero (slots is a multiple of
	// 8, so the pad carries no solution bits).
	for off := int(planeBytes) - 1; off < len(f.sol); off += int(planeBytes) {
		if f.sol[off] != 0 {
			return nil, 0, errors.New("ribbon: nonzero plane padding")
		}
	}
	return f, headerLen + int(solLen), nil
}

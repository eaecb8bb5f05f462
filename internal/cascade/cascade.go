// Package cascade implements a CRLite-style filter cascade over the full
// revocation corpus: a push-based artifact that is both complete (every
// revocation is represented) and exact for every enrolled certificate,
// unlike the <1%-coverage CRLSet and the false-positive-prone single
// Bloom filter of §7.4.
//
// # Construction
//
// Level 1 is a ribbon filter over the revoked key set R with 7-bit
// fingerprints (false-positive rate ≈2^-7), solved exactly for R. Level 2
// holds the *false positives* of level 1: every enrolled non-revoked key
// that level 1 wrongly claims, discovered by streaming the entire
// known-certificate population (corpus.Corpus.Visit) through level 1.
// Level 3 holds the revoked keys that level 2 wrongly claims, and so on,
// alternating between subsets of R and subsets of the population, each
// level at p≈1/2, until a level captures no false positives. A deep level
// is a 1-bit ribbon or a k=1 Bloom filter, whichever encodes smaller for
// its key count. Because every wrong answer at level i is enumerated
// exactly at level i+1, the final structure gives the ground-truth answer
// for every key that was in R or in the streamed population at build
// time — zero false positives, zero false negatives. Each level salts its
// hashes with the level index so false positives do not correlate across
// levels (an unsalted cascade can fail to converge).
//
// A key is the issuing CA's SPKI hash (32 bytes) followed by the
// canonical serial magnitude (serialx.Canon) — the same layout
// browser.BloomKey produces.
//
// # Enrollment and freshness
//
// The cascade's exactness claim holds only for certificates it has seen:
// a cert is enrolled when its issuer's parent hash is in the snapshot's
// parent list and its NotBefore predates the snapshot cutoff. Clients
// must fall back to the network for anything else, and for snapshots
// older than their max-age (a stale cascade may miss fresh revocations).
//
// # Updates
//
// A Publisher maintains a daily chain: level 1 is a frozen solution and
// adds are stashed beside it (a tail append to its side list) until the
// stash outgrows its budget and level 1 is solved again; removals simply
// leave their claim standing (a removed key becomes a level-1 false
// positive, level 2 captures it, and the verdict flips back to Good —
// exactness is preserved without touching level 1). The publisher reads
// the known population once per chain and keeps, between epochs, the key
// sets the deep levels were built from; a day's churn moves those sets
// by the keys it names, the levels above the first set that moved are
// kept and the ones from there down are solved again, and a day without
// churn republishes them all. Each epoch ships as a full snapshot plus a
// binary delta against the previous snapshot, CRC-fenced on both ends so
// a client can never apply a delta to the wrong base (see delta.go).
package cascade

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/ribbon"
)

const (
	// maxLevels caps cascade depth; construction past this means the
	// level populations are not shrinking (pathological correlation) and
	// the build errors out rather than looping.
	maxLevels = 64
	// level1RBits / deepRBits are the ribbon fingerprint widths of level 1
	// and of the deep levels: false-positive targets 2^-7, so level 2
	// stays ~1% of the population, and 2^-1.
	level1RBits = 7
	deepRBits   = 1
	// ParentSize is the byte length of an issuer key hash (SHA-256 of
	// the SubjectPublicKeyInfo), the prefix of every cascade key.
	ParentSize = 32
)

// Parent identifies an issuing key: SHA-256 of its SubjectPublicKeyInfo
// (the same value crlset.Parent holds).
type Parent [ParentSize]byte

// LevelKind names a cascade chain kind. There is one, KindRibbon, and no
// code reads a LevelKind value: the type, its constant and the fields and
// parameters that carry it stay only because the benchmark harness
// (bench/layers.go) names them.
type LevelKind uint8

// KindRibbon is the one chain kind: a ribbon level 1 and, for each deep
// level, whichever of ribbon and Bloom encodes smaller.
const KindRibbon LevelKind = 1

// levelKind is the on-wire per-level representation tag.
type levelKind uint8

const (
	kindBloom  levelKind = 0
	kindRibbon levelKind = 1
)

// level is one filter of the cascade, either a salted Bloom filter or a
// ribbon filter plus an exact side list (bumped rows, publisher stash).
// All byte slices may alias the decode buffer (zero-copy, mmap-friendly);
// they are never written after build.
type level struct {
	kind levelKind
	// Bloom representation.
	k     uint32
	mBits uint64
	bits  []byte
	// Ribbon representation. side holds little-endian uint32 records
	// (ribbon.Hash64 of member keys, truncated) that force "contains":
	// rows the solver bumped, plus keys a publisher stashed after the
	// last level-1 freeze. A member key always finds its own truncated
	// hash, so the side list cannot cause a false negative; a collision
	// is one more false positive for the next level to capture. The wire
	// order is the publisher's append order — bumped rows sorted at
	// freeze time, then stash entries in arrival order — so day-to-day
	// stash growth is a pure tail append and the delta's block diff
	// ships only the new entries. sideSorted is the in-memory sorted
	// view lookups binary-search; it never reaches the wire.
	rib        *ribbon.Filter
	side       []byte
	sideSorted []uint32
}

// ribbonLevel wraps a solved ribbon and its packed side list into a
// level, materializing the sorted lookup view.
func ribbonLevel(rib *ribbon.Filter, side []byte) level {
	return level{kind: kindRibbon, rib: rib, side: side, sideSorted: sortSide(side)}
}

// sortSide unpacks side-list wire bytes into a sorted uint32 slice.
func sortSide(side []byte) []uint32 {
	if len(side) == 0 {
		return nil
	}
	out := make([]uint32, len(side)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(side[i*4:])
	}
	slices.Sort(out)
	return out
}

// mergeSorted merges two ascending slices into a new one, duplicates kept
// as sortSide keeps them, so a publisher can extend a published level's
// lookup view without writing it.
func mergeSorted(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// sizeDeep returns the bit count of a deep (k=1) level holding n keys:
// m = n/ln2 ≈ 1.4427·n, floor 64 bits.
func sizeDeep(n int) uint64 {
	m := uint64(float64(n)*1.4426950408889634) + 1
	if m < 64 {
		m = 64
	}
	return (m + 63) &^ 63
}

func newLevel(k uint32, mBits uint64) level {
	return level{k: k, mBits: mBits, bits: make([]byte, (mBits+7)/8)}
}

// hashPair derives the two double-hashing bases from a key's level
// digest (Kirsch–Mitzenmacher, like internal/bloom). The digest is
// ribbon.Sum(salt, key): salting with the level index decorrelates probe
// positions across levels, and Bloom and ribbon levels hash the same
// preimage, so one digest serves whichever kind a level turns out to be.
func hashPair(d *ribbon.Digest) (uint64, uint64) {
	return binary.BigEndian.Uint64(d[0:8]), binary.BigEndian.Uint64(d[8:16]) | 1
}

func (l *level) add(salt byte, key []byte) {
	d := ribbon.Sum(salt, key)
	h1, h2 := hashPair(&d)
	for i := uint64(0); i < uint64(l.k); i++ {
		bit := (h1 + i*h2) % l.mBits
		l.bits[bit>>3] |= 1 << (bit & 7)
	}
}

func (l *level) contains(salt byte, key []byte) bool {
	return l.containsDigest(ribbon.Sum(salt, key))
}

// containsDigest is contains for a key whose digest at this level's salt
// the caller already holds. Zero allocations.
func (l *level) containsDigest(d ribbon.Digest) bool {
	if l.kind == kindRibbon {
		match, h64 := l.rib.ProbeDigest(d)
		return match || sideLookup(l.sideSorted, uint32(h64))
	}
	h1, h2 := hashPair(&d)
	for i := uint64(0); i < uint64(l.k); i++ {
		bit := (h1 + i*h2) % l.mBits
		if l.bits[bit>>3]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// sideLookup binary-searches the sorted side-list view for h. Zero
// allocations.
func sideLookup(side []uint32, h uint32) bool {
	lo, hi := 0, len(side)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if side[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(side) && side[lo] == h
}

// truncateHashes maps 64-bit ribbon hashes to the sorted deduplicated
// 32-bit values the side list stores.
func truncateHashes(hs []uint64) []uint32 {
	if len(hs) == 0 {
		return nil
	}
	out := make([]uint32, len(hs))
	for i, h := range hs {
		out[i] = uint32(h)
	}
	slices.Sort(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// packHashes flattens uint32 hashes into side-list wire form, keeping
// the caller's order.
func packHashes(hs []uint32) []byte {
	if len(hs) == 0 {
		return nil
	}
	out := make([]byte, 0, 4*len(hs))
	for _, h := range hs {
		out = binary.LittleEndian.AppendUint32(out, h)
	}
	return out
}

// bloomLevelBytes / ribbonLevelBytes are the encoded v2 sizes of a deep
// level holding n keys under each representation (kind byte + payload;
// side lists excluded — bumps are rare). Deterministic, so per-level
// kind selection never flip-flops for a given population.
func bloomLevelBytes(n int) int  { return 1 + levelHeaderSize + int(sizeDeep(n)/8) }
func ribbonLevelBytes(n int) int { return 1 + ribbon.EstimateBytes(n, deepRBits) }

// makeDeepLevel builds one deep level over keys in whichever
// representation encodes smaller for their count (ties go to Bloom). A
// handful of keys — the tail of every cascade — is cheaper as a few
// bytes of k=1 Bloom bits than as a ribbon's fixed header and bucket
// granularity.
func makeDeepLevel(salt byte, keys [][]byte) (level, error) {
	if ribbonLevelBytes(len(keys)) < bloomLevelBytes(len(keys)) {
		rib, bumped, err := ribbon.Build(salt, keys, deepRBits)
		if err != nil {
			return level{}, err
		}
		return ribbonLevel(rib, packHashes(truncateHashes(bumped))), nil
	}
	lv := newLevel(1, sizeDeep(len(keys)))
	for _, k := range keys {
		lv.add(salt, k)
	}
	return lv, nil
}

// Filter is a decoded cascade snapshot. It is immutable and safe for
// concurrent use; its parent list and level bit arrays may alias the
// buffer handed to Decode.
type Filter struct {
	epoch    uint32
	builtAt  int64 // unix seconds
	cutoff   int64 // unix seconds; certs issued at/after this are not enrolled
	maxAge   uint32
	nRevoked uint32
	parents  []byte // nParents × 32, strictly ascending
	levels   []level
}

// NumLevels returns the cascade depth.
func (f *Filter) NumLevels() int { return len(f.levels) }

// NumRevoked returns the number of revoked keys the snapshot encodes.
func (f *Filter) NumRevoked() int { return int(f.nRevoked) }

// NumParents returns the number of enrolled issuers.
func (f *Filter) NumParents() int { return len(f.parents) / ParentSize }

// FreshAt reports whether the snapshot is still within its max-age at
// now. A stale cascade must not give authoritative verdicts — it may
// miss revocations published since — so clients fall back to the
// network. A zero max-age means the snapshot never expires.
func (f *Filter) FreshAt(now time.Time) bool {
	return f.maxAge == 0 || !now.After(time.Unix(f.builtAt+int64(f.maxAge), 0))
}

// EnrolledParent reports whether issuer p is covered by this snapshot.
func (f *Filter) EnrolledParent(p Parent) bool {
	n := len(f.parents) / ParentSize
	i := sort.Search(n, func(i int) bool {
		return bytes.Compare(f.parents[i*ParentSize:(i+1)*ParentSize], p[:]) >= 0
	})
	return i < n && bytes.Equal(f.parents[i*ParentSize:(i+1)*ParentSize], p[:])
}

// Covers reports whether the cascade's verdict is authoritative for a
// certificate: its issuer must be enrolled and it must have been issued
// before the snapshot cutoff (later certs were never streamed through
// the build, so exactness does not extend to them).
func (f *Filter) Covers(p Parent, notBefore time.Time) bool {
	return notBefore.Unix() < f.cutoff && f.EnrolledParent(p)
}

// Revoked returns the cascade's verdict for key, which must be the
// AppendKey layout. The answer is exact — ground truth, not
// probabilistic — for every key enrolled at build time (Covers);
// for anything else it is meaningless and must not be consulted.
//
// A miss at an odd level (1-based) proves the key is not in R; a miss
// at an even level proves it is not in the whitelist of the level
// above, i.e. it is revoked. A key passing every level belongs to the
// deepest level's population.
func (f *Filter) Revoked(key []byte) bool {
	return f.RevokedDigest(key, ribbon.Sum(0, key))
}

// RevokedDigest is Revoked for a key whose level-1 digest the caller
// already holds: RevokedDigest(key, ribbon.Sum(0, key)) ≡ Revoked(key).
// Level 1 is probed with d and hashes nothing; the deeper levels, which
// only level-1 members and false positives reach, hash key at their own
// salts. A browser keeps d with the certificate
// (x509x.Certificate.KeyDigest). Zero allocations.
func (f *Filter) RevokedDigest(key []byte, d ribbon.Digest) bool {
	if len(f.levels) == 0 || !f.levels[0].containsDigest(d) {
		return false // not in R
	}
	for i := 1; i < len(f.levels); i++ {
		if !f.levels[i].contains(byte(i), key) {
			return i%2 == 1
		}
	}
	return len(f.levels)%2 == 1
}

// SizeBytes returns the encoded snapshot size.
func (f *Filter) SizeBytes() int {
	n := headerSize + len(f.parents) + crcSize
	for i := range f.levels {
		l := &f.levels[i]
		n++ // kind byte
		if l.kind == kindRibbon {
			n += l.rib.EncodedLen()
		} else {
			n += levelHeaderSize + len(l.bits)
		}
		n += sideCountSize + 4*sideCapEntries(len(l.side)/4, i)
	}
	return n
}

// AppendKey appends the cascade key for (parent, serial) to dst: the
// issuer's SPKI hash followed by the canonical serial magnitude. This is
// the same layout as browser.BloomKey; the duplicate exists only to keep
// the import direction cascade ← browser.
func AppendKey(dst []byte, parent Parent, serial []byte) []byte {
	dst = append(dst, parent[:]...)
	i := 0
	for i < len(serial) && serial[i] == 0 {
		i++
	}
	return append(dst, serial[i:]...)
}

// BuildConfig parameterizes a cascade build.
type BuildConfig struct {
	// Epoch stamps the snapshot's chain position.
	Epoch uint32
	// BuiltAt is the snapshot's nominal build time.
	BuiltAt time.Time
	// Cutoff gates enrollment: certs with NotBefore at or after it are
	// not covered. Zero means BuiltAt.
	Cutoff time.Time
	// MaxAge is how long clients may treat the snapshot as fresh.
	// Zero means forever.
	MaxAge time.Duration
	// LevelKind is not read: there is one chain kind (see LevelKind).
	LevelKind LevelKind
}

// buildDeepLevels constructs levels 2..L given a finished level 1, in
// streaming form: revoked maps every key of R; visitKnown streams the
// full known-cert population (revoked certs included — they are skipped
// by the map). The returned level slice includes lvl1. This is the
// reference a Publisher is tested against: it finds the same key sets
// from what it kept of the previous epoch and calls buildFromCandidates
// from the first level whose set moved.
func buildDeepLevels(lvl1 level, revoked map[string]bool, visitKnown func(func(key []byte) bool)) ([]level, error) {
	// D2: enrolled non-revoked keys that level 1 wrongly claims. This is
	// the only pass over the full population; later levels winnow the
	// two materialized false-positive lists.
	var fromPop [][]byte
	visitKnown(func(key []byte) bool {
		if !revoked[string(key)] && lvl1.contains(0, key) {
			fromPop = append(fromPop, append([]byte(nil), key...))
		}
		return true
	})
	fromRev := make([][]byte, 0, len(revoked))
	for k := range revoked {
		fromRev = append(fromRev, []byte(k))
	}
	levels, _, err := buildFromCandidates([]level{lvl1}, fromPop, fromRev)
	return levels, err
}

// buildFromCandidates builds the levels that follow levels, a standing
// prefix of the cascade which it appends to: level 1 alone for a build
// from nothing, levels 1..i-1 to rebuild from level i. cur is D_i, the
// key set level i holds; other is D_{i-1}, the set the prefix's last level
// holds (all of R when that is level 1). From there the loop alternates:
// D_{i+1} is the members of D_{i-1} that the just-built level i wrongly
// claims, so even levels hold subsets of the population and odd levels
// subsets of R, until a level claims nothing it should not. Neither list
// is written — winnowing allocates — and every level is a function of its
// key set alone, not of the order the keys come in, which is what lets a
// prefix built on another day stand. sets[j] is the key set of the j-th
// level built here (sets[0] is cur); the keys alias the caller's.
func buildFromCandidates(levels []level, cur, other [][]byte) (_ []level, sets [][][]byte, err error) {
	for len(cur) > 0 {
		if len(levels) >= maxLevels {
			return nil, nil, fmt.Errorf("cascade: build exceeded %d levels (hash correlation?)", maxLevels)
		}
		salt := byte(len(levels))
		lv, err := makeDeepLevel(salt, cur)
		if err != nil {
			return nil, nil, err
		}
		levels = append(levels, lv)
		sets = append(sets, cur)

		next := other[:0:0]
		for _, k := range other {
			if lv.contains(salt, k) {
				next = append(next, k)
			}
		}
		cur, other = next, cur
	}
	return levels, sets, nil
}

// Build constructs a cascade from scratch: revoked holds every revoked
// key (AppendKey layout), visitKnown streams every known cert's key
// (revoked ones included), parents lists the enrolled issuers.
// The result is exact for every streamed key.
func Build(revoked [][]byte, visitKnown func(func(key []byte) bool), parents []Parent, cfg BuildConfig) (*Filter, error) {
	revSet := make(map[string]bool, len(revoked))
	for _, k := range revoked {
		revSet[string(k)] = true
	}
	keys := make([][]byte, 0, len(revSet))
	for k := range revSet {
		keys = append(keys, []byte(k))
	}
	rib, bumped, err := ribbon.Build(0, keys, level1RBits)
	if err != nil {
		return nil, err
	}
	lvl1 := ribbonLevel(rib, packHashes(truncateHashes(bumped)))
	levels, err := buildDeepLevels(lvl1, revSet, visitKnown)
	if err != nil {
		return nil, err
	}
	return assemble(levels, len(revSet), parents, cfg)
}

// assemble packs built levels plus metadata into a Filter.
func assemble(levels []level, nRevoked int, parents []Parent, cfg BuildConfig) (*Filter, error) {
	sorted := make([]Parent, len(parents))
	copy(sorted, parents)
	sort.Slice(sorted, func(i, j int) bool {
		return bytes.Compare(sorted[i][:], sorted[j][:]) < 0
	})
	flat := make([]byte, 0, len(sorted)*ParentSize)
	for i, p := range sorted {
		if i > 0 && bytes.Equal(sorted[i-1][:], p[:]) {
			return nil, errors.New("cascade: duplicate parent")
		}
		flat = append(flat, p[:]...)
	}
	cutoff := cfg.Cutoff
	if cutoff.IsZero() {
		cutoff = cfg.BuiltAt
	}
	return &Filter{
		epoch:    cfg.Epoch,
		builtAt:  cfg.BuiltAt.Unix(),
		cutoff:   cutoff.Unix(),
		maxAge:   uint32(cfg.MaxAge / time.Second),
		nRevoked: uint32(nRevoked),
		parents:  flat,
		levels:   levels,
	}, nil
}

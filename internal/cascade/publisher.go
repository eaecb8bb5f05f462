package cascade

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/ribbon"
)

// PublishConfig parameterizes a Publisher.
type PublishConfig struct {
	// Parents lists the enrolled issuers. Fixed for the chain's life.
	Parents []Parent
	// VisitKnown streams every known certificate key (revoked certs
	// included). It is read once, on the first Advance, and the
	// population it streams is fixed for the chain's life, like Parents:
	// the publisher keeps every key with its level-1 digest and answers
	// each later epoch from that copy. The callback retains nothing of
	// the slice it is handed.
	VisitKnown func(fn func(key []byte) bool)
	// MaxAge stamps each snapshot's freshness window. Zero = forever.
	MaxAge time.Duration
	// Level1Capacity is the initial level-1 key capacity (Bloom chains
	// only). The level-1 bit array is sized once from it and daily
	// additions are OR'd in place, keeping day-to-day deltas
	// proportional to churn; when lifetime insertions outgrow the
	// capacity the publisher resizes (a full rebuild and a large
	// one-time delta). Zero defaults to 4096.
	Level1Capacity int
	// LevelKind selects the chain's level representation. KindBloom
	// (the zero value) is the original OR-in-place Bloom chain and its
	// CASC v1 bytes; KindRibbon/KindAuto run the succinct ribbon chain:
	// level 1 is a frozen exact solution over R, daily additions land
	// in an exact stash (the level's side list, a tail append in the
	// encoding), and when the stash outgrows its budget the publisher
	// re-freezes — a full re-solve and a large one-time delta, the same
	// escape hatch as a Bloom resize.
	LevelKind LevelKind
}

// Publisher maintains a daily cascade chain: one call to Advance per
// epoch yields the full snapshot and a delta against the previous one.
type Publisher struct {
	cfg   PublishConfig
	epoch uint32
	prev  []byte // previous epoch's encoded snapshot
	// revoked is the current R; each value is the publisher's own copy of
	// the key's bytes, made once when the key is added, so a rebuild
	// gathers slice headers instead of copying |R| keys out of the map.
	revoked map[string][]byte
	// levels are the last rebuild's levels. They are a pure function of
	// (level 1, R, population), so an epoch that adds and removes nothing
	// publishes them again under a new header.
	levels []level

	// The known population, read once by readKnown: key i is
	// knownKeys[knownEnd[i-1]:knownEnd[i]] and knownSums[i] is its
	// level-1 digest, so finding level-2 candidates costs one filter
	// probe per key — no corpus visit, no key rebuild, no SHA-256.
	knownRead bool
	knownKeys []byte
	knownEnd  []uint32
	knownSums []ribbon.Digest

	// Bloom chain state.
	lvl1 level // accumulated; params fixed between resizes
	// inserted counts distinct keys ever OR'd into lvl1 — removals keep
	// their bits, so fill (and the FP rate driving level-2 size) tracks
	// lifetime insertions, not |R|.
	inserted int
	capacity int

	// Ribbon chain state.
	rib      *ribbon.Filter  // frozen level-1 solution
	ribBumps []uint32        // rows bumped at the last freeze, truncated+sorted
	stash    []uint32        // post-freeze additions (truncated Hash64), arrival order
	stashSet map[uint32]bool // dedup for stash appends
	frozen   int             // |R| at the last freeze
}

// NewPublisher creates an empty chain. The first Advance produces
// epoch 1 with no delta.
func NewPublisher(cfg PublishConfig) *Publisher {
	p := &Publisher{
		cfg:     cfg,
		revoked: make(map[string][]byte),
	}
	if cfg.LevelKind == KindBloom {
		cap := cfg.Level1Capacity
		if cap <= 0 {
			cap = 4096
		}
		p.lvl1 = newLevel(level1K, sizeLevel1(cap))
		p.capacity = cap
	}
	return p
}

// Epoch returns the last published epoch (0 before the first Advance).
func (p *Publisher) Epoch() uint32 { return p.epoch }

// NumRevoked returns the current revoked-set size.
func (p *Publisher) NumRevoked() int { return len(p.revoked) }

// StashLen returns the ribbon chain's current stash size (0 for Bloom
// chains and right after a freeze).
func (p *Publisher) StashLen() int { return len(p.stash) }

// Snapshot returns the last published snapshot bytes (nil before the
// first Advance). Callers must not mutate it.
func (p *Publisher) Snapshot() []byte { return p.prev }

// Advance publishes the next epoch: adds and removes are the day's
// revocation churn (cascade keys, AppendKey layout). It returns the
// full snapshot and a delta from the previous epoch's snapshot (nil for
// the first epoch). The snapshot is the canonical artifact: applying
// the delta chain client-side reconstructs these exact bytes, fenced by
// CRC at every hop.
//
// Bloom chains OR additions into the fixed-size level 1 and ship the
// added keys in the delta for client-side replay. Ribbon chains leave
// the frozen level-1 solution untouched and append additions to the
// exact stash, which the delta's byte patch carries as a tail append.
// Either way removals only shrink the revoked set — their level-1
// claim stays, turning the removed keys into level-1 false positives
// that the rebuilt level 2 whitelists, so the verdict flips to Good
// without touching level-1 bytes.
//
// The work is in proportion to what changed. The first Advance reads
// the known population once (PublishConfig.VisitKnown). An epoch that
// newly adds or actually removes a key rebuilds the deep levels: one
// level-1 probe per retained population digest, then hashing over the
// level-2 candidates and R. Any other epoch — an empty day, re-adds of
// revoked keys, removes of keys not in R — republishes the previous
// levels under the new epoch and build time.
func (p *Publisher) Advance(now time.Time, adds, removes [][]byte) (snapshot, deltaBytes []byte, err error) {
	if !p.knownRead {
		if err := p.readKnown(); err != nil {
			return nil, nil, err
		}
	}
	var added, removed [][]byte // net-new churn
	for _, k := range adds {
		if _, ok := p.revoked[string(k)]; ok {
			continue
		}
		own := append([]byte(nil), k...)
		p.revoked[string(k)] = own
		added = append(added, own)
	}
	for _, k := range removes {
		if own, ok := p.revoked[string(k)]; ok {
			delete(p.revoked, string(k))
			removed = append(removed, own)
		}
	}
	if p.levels == nil || len(added)+len(removed) > 0 {
		// R has already moved, so a rebuild that fails must not leave the
		// previous levels behind for a later quiet epoch to republish.
		p.levels = nil
		var lvl1 level
		if p.cfg.LevelKind == KindBloom {
			lvl1 = p.bloomLevel1(added)
		} else if lvl1, err = p.ribbonLevel1(added); err != nil {
			return nil, nil, err
		}
		p.levels, err = buildFromCandidates(lvl1, p.level2Candidates(&lvl1), p.revokedKeys(), p.cfg.LevelKind)
		if err != nil {
			return nil, nil, err
		}
	}
	if p.cfg.LevelKind != KindBloom {
		// Ribbon deltas ship no key lists at all. Adds: there is no bit
		// array to replay them into, and the stash tail rides in the byte
		// patch for 4 bytes per key instead of a full 33-byte key. Removes:
		// the list is advisory everywhere (Apply only needs the patch), and
		// at 33 bytes per key the late-study expiry churn would dominate
		// per-issuer shard deltas — the rebuilt deep levels already carry
		// the verdict flips.
		added, removed = nil, nil
	}

	p.epoch++
	f, err := assemble(p.levels, len(p.revoked), p.cfg.Parents, BuildConfig{
		Epoch:   p.epoch,
		BuiltAt: now,
		MaxAge:  p.cfg.MaxAge,
	})
	if err != nil {
		return nil, nil, err
	}
	snapshot = f.Encode()
	if p.prev != nil {
		deltaBytes, err = MakeDelta(p.prev, snapshot, added, removed)
		if err != nil {
			return nil, nil, fmt.Errorf("cascade: epoch %d delta: %w", p.epoch, err)
		}
	}
	p.prev = snapshot
	return snapshot, deltaBytes, nil
}

// readKnown makes the chain's one pass over the known population.
func (p *Publisher) readKnown() error {
	p.cfg.VisitKnown(func(key []byte) bool {
		p.knownKeys = append(p.knownKeys, key...)
		p.knownEnd = append(p.knownEnd, uint32(len(p.knownKeys)))
		p.knownSums = append(p.knownSums, ribbon.Sum(0, key))
		return true
	})
	if uint64(len(p.knownKeys)) > math.MaxUint32 {
		return errors.New("cascade: known population exceeds 4 GiB of key bytes")
	}
	p.knownRead = true
	return nil
}

// level2Candidates returns the enrolled non-revoked keys that lvl1
// wrongly claims. The keys alias knownKeys, which is never written again.
func (p *Publisher) level2Candidates(lvl1 *level) [][]byte {
	var out [][]byte
	start := uint32(0)
	for i, end := range p.knownEnd {
		key := p.knownKeys[start:end:end]
		start = end
		if !lvl1.containsDigest(p.knownSums[i]) {
			continue
		}
		if _, revoked := p.revoked[string(key)]; !revoked {
			out = append(out, key)
		}
	}
	return out
}

// revokedKeys lists R. The keys are the publisher's own copies; callers
// must not write them.
func (p *Publisher) revokedKeys() [][]byte {
	keys := make([][]byte, 0, len(p.revoked))
	for _, k := range p.revoked {
		keys = append(keys, k)
	}
	return keys
}

// bloomLevel1 ORs the epoch's new keys into the accumulated level 1.
func (p *Publisher) bloomLevel1(added [][]byte) level {
	for _, k := range added {
		p.lvl1.add(0, k)
	}
	p.inserted += len(added)
	if p.inserted > p.capacity {
		// Outgrown: rebuild level 1 from the live set at double the
		// need. Clears removed keys' stale bits as a side effect. The
		// next delta is near-full-size — rare by construction.
		p.capacity = 2*p.inserted + 64
		p.lvl1 = newLevel(level1K, sizeLevel1(p.capacity))
		for _, k := range p.revoked {
			p.lvl1.add(0, k)
		}
		p.inserted = len(p.revoked)
	}
	// The published levels share p.lvl1's live bits. That is fine: the
	// bits only change on an epoch that adds a key, which rebuilds the
	// levels, and every snapshot is a fresh byte slice.
	return p.lvl1
}

// ribbonLevel1 is the succinct chain's level 1: frozen solution + exact
// stash.
func (p *Publisher) ribbonLevel1(added [][]byte) (level, error) {
	for _, k := range added {
		// Append, never insert: the stash's wire order is arrival order,
		// so between freezes the encoded side list only grows at its
		// tail and the delta ships 4 bytes per new key.
		if h := uint32(ribbon.Hash64(0, k)); !p.stashSet[h] {
			if p.stashSet == nil {
				p.stashSet = make(map[uint32]bool)
			}
			p.stashSet[h] = true
			p.stash = append(p.stash, h)
		}
	}
	if p.rib == nil || len(p.stash) > stashBudget(p.frozen) {
		// Freeze: solve level 1 exactly for the live set, sized with
		// only the solver's ~12% slack — no growth headroom, that is
		// the stash's job. The next delta is near-full-size, the same
		// rare escape hatch as a Bloom resize.
		keys := p.revokedKeys()
		rib, bumps, err := ribbon.Build(0, keys, level1RBits)
		if err != nil {
			return level{}, err
		}
		p.rib, p.ribBumps, p.frozen = rib, truncateHashes(bumps), len(keys)
		p.stash, p.stashSet = nil, nil
	}
	side := packHashes(p.ribBumps)
	side = append(side, packHashes(p.stash)...)
	return ribbonLevel(p.rib, side), nil
}

// stashBudget is how many stashed keys a ribbon chain tolerates before
// re-freezing: a sixteenth of the frozen set — at 4 bytes per stash
// entry against the solution's ~1 byte/key, that caps the snapshot
// bloat between freezes at ~25%, keeping the chain's published
// artifact within the succinctness gate (≤0.70x Bloom) instead of
// letting it double back to Bloom size. Floor 128 so small chains —
// per-issuer shards especially — still go weeks between the
// near-full-size re-freeze deltas on modest daily churn.
func stashBudget(frozen int) int {
	b := frozen / 16
	if b < 128 {
		b = 128
	}
	return b
}

package cascade

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// the publisher keeps every key with its level-1 digest, probes that
	// copy when level 1 is solved anew and looks a day's churn up in it
	// on every other epoch. The callback retains nothing of the slice it
	// is handed.
	VisitKnown func(fn func(key []byte) bool)
	// MaxAge stamps each snapshot's freshness window. Zero = forever.
	MaxAge time.Duration
	// LevelKind is not read: there is one chain kind (see LevelKind).
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
	// levels are the last epoch's levels, nil before the first epoch and
	// after one that failed. Each deep level is a pure function of its key
	// set, so an epoch keeps every level above the first whose set moved
	// and an epoch that adds and removes nothing keeps them all.
	levels []level

	// The known population, read once by readKnown: key i is
	// knownKeys[knownEnd[i-1]:knownEnd[i]] and knownSums[i] is its
	// level-1 digest, so finding level-2 candidates costs one filter
	// probe per key — no corpus visit, no key rebuild, no SHA-256.
	knownRead bool
	knownKeys []byte
	knownEnd  []uint32
	knownSums []ribbon.Digest

	// The ledger: the key sets levels[1] and levels[2] were built from,
	// which an epoch moves by its churn instead of deriving them again
	// (moveD2, moveD3). It is meaningful only while levels is non-nil.
	// d2 holds indices into the known population, d3 the publisher's own
	// copies of keys of R. knownByHash lists the known indices ordered by
	// knownHash, on first need: it answers "which known keys carry this
	// truncated level-1 hash" and, with a compare of key bytes, "is this
	// key known".
	d2          map[uint32]struct{}
	d3          map[string][]byte
	knownByHash []uint32

	// lvl1 is the current level 1: the frozen solution and the side list,
	// bumped rows then stash. An epoch that stashes replaces side and
	// sideSorted with longer copies, so a level already published is never
	// written.
	lvl1 level
	// stashSet holds the truncated hashes stashed since the last freeze,
	// frozen |R| at that freeze.
	stashSet map[uint32]bool
	frozen   int

	probed      int          // known digests probed by level2Candidates (tests)
	failRebuild func() error // test hook: fails the deep-level build of a churn epoch
}

// NewPublisher creates an empty chain. The first Advance produces
// epoch 1 with no delta.
func NewPublisher(cfg PublishConfig) *Publisher {
	return &Publisher{
		cfg:     cfg,
		revoked: make(map[string][]byte),
	}
}

// Advance publishes the next epoch: adds and removes are the day's
// revocation churn (cascade keys, AppendKey layout). It returns the
// full snapshot and a delta from the previous epoch's snapshot (nil for
// the first epoch). The snapshot is the canonical artifact: applying
// the delta chain client-side reconstructs these exact bytes, fenced by
// CRC at every hop.
//
// Additions leave the frozen level-1 solution untouched and append to
// the exact stash, which the delta's byte patch carries as a tail append.
// Removals only shrink the revoked set — their level-1 claim stays,
// turning the removed keys into level-1 false positives that level 2
// whitelists, so the verdict flips to Good without touching level-1
// bytes.
//
// The work is in proportion to what changed. The first Advance reads
// the known population once (PublishConfig.VisitKnown) and probes every
// digest it kept; so does a re-freeze, after which level 1's claims can
// have moved anywhere. Any other epoch that newly adds or actually
// removes a key moves the key sets of levels 2 and 3 by the day's churn
// (moveD2, moveD3), keeps every level above the first whose set moved
// and solves the rest again over their whole sets. An epoch with no net churn — an empty day,
// re-adds of revoked keys, removes of keys not in R — republishes the
// previous levels under the new epoch and build time.
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
		if err := p.rebuild(added, removed); err != nil {
			return nil, nil, err
		}
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
		deltaBytes, err = MakeDelta(p.prev, snapshot)
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

// rebuild brings p.levels up to an epoch's net churn; R already has its
// final value. added may hold keys that removed holds too (revoked and
// dropped on one day): they are not in R, but level 1 has stashed them.
func (p *Publisher) rebuild(added, removed [][]byte) error {
	prev := p.levels
	// R has already moved, so an epoch that fails must leave neither the
	// previous levels for a later quiet epoch to republish nor the ledger
	// for a later churn epoch to move: the next one starts from nothing.
	p.levels = nil

	stashed, froze, err := p.level1(added)
	if err != nil {
		return err
	}
	from := 0 // the first level (1-based) whose key set moved
	switch {
	case prev == nil || froze: // level 1 may claim keys it did not, anywhere
		p.level2Candidates()
		from = 2
	case p.moveD2(added, stashed, removed):
		from = 2
	case len(prev) > 1 && p.moveD3(&prev[1], added, removed):
		from = 3
	}
	levels := append(make([]level, 0, max(len(prev), 1)), p.lvl1)
	if from == 0 {
		p.levels = append(levels, prev[1:]...)
		return nil
	}
	// cur is the key set of level from, other that of the level above it.
	cur, other := p.d2Keys(), p.revokedKeys()
	if from == 3 {
		levels = append(levels, prev[1])
		cur, other = make([][]byte, 0, len(p.d3)), cur
		for _, k := range p.d3 {
			cur = append(cur, k)
		}
	}
	if p.failRebuild != nil {
		if err := p.failRebuild(); err != nil {
			return err
		}
	}
	levels, sets, err := buildFromCandidates(levels, cur, other)
	if err != nil {
		return err
	}
	if from == 2 {
		p.d3 = make(map[string][]byte)
		if len(sets) > 1 {
			for _, k := range sets[1] {
				p.d3[string(k)] = k
			}
		}
	}
	p.levels = levels
	return nil
}

// knownKey returns known key i. It aliases knownKeys, which is never
// written after readKnown.
func (p *Publisher) knownKey(i uint32) []byte {
	start := uint32(0)
	if i > 0 {
		start = p.knownEnd[i-1]
	}
	end := p.knownEnd[i]
	return p.knownKeys[start:end:end]
}

// knownHash is known key i's truncated level-1 hash, the value a side
// list stores for it.
func (p *Publisher) knownHash(i uint32) uint32 { return uint32(p.knownSums[i].Hash64()) }

// knownWith returns the indices of the known keys that carry truncated
// level-1 hash h: a binary search of knownByHash.
func (p *Publisher) knownWith(h uint32) []uint32 {
	if len(p.knownByHash) != len(p.knownEnd) {
		p.knownByHash = make([]uint32, len(p.knownEnd))
		for i := range p.knownByHash {
			p.knownByHash[i] = uint32(i)
		}
		slices.SortFunc(p.knownByHash, func(a, b uint32) int {
			return cmp.Compare(p.knownHash(a), p.knownHash(b))
		})
	}
	lo, _ := slices.BinarySearchFunc(p.knownByHash, h, func(i, h uint32) int {
		return cmp.Compare(p.knownHash(i), h)
	})
	hi := lo
	for hi < len(p.knownByHash) && p.knownHash(p.knownByHash[hi]) == h {
		hi++
	}
	return p.knownByHash[lo:hi]
}

// level2Candidates sets d2 to the enrolled non-revoked keys that lvl1
// wrongly claims by probing every known digest: the one way to find
// level 2's key set from nothing.
func (p *Publisher) level2Candidates() {
	p.d2 = make(map[uint32]struct{})
	for i := range p.knownEnd {
		if !p.lvl1.containsDigest(p.knownSums[i]) {
			continue
		}
		if _, revoked := p.revoked[string(p.knownKey(uint32(i)))]; !revoked {
			p.d2[uint32(i)] = struct{}{}
		}
	}
	p.probed += len(p.knownEnd)
}

// moveD2 moves level 2's key set by an epoch's churn and reports whether
// it changed. It holds while level 1's solution stands, which leaves three
// ways for a known key to enter or leave the set of non-revoked keys that
// level 1 claims: it was added to R; its truncated hash was stashed
// today, the only way a standing level 1 gains a claim; it was removed
// from R, and level 1 claims whatever was ever in R since its solution
// was made. Additions are decided on the epoch's final R, so a key added
// and removed today enters through the last rule.
func (p *Publisher) moveD2(added [][]byte, stashed []uint32, removed [][]byte) bool {
	changed := false
	set := func(i uint32, in bool) {
		if _, was := p.d2[i]; was == in {
			return
		}
		if in {
			p.d2[i] = struct{}{}
		} else {
			delete(p.d2, i)
		}
		changed = true
	}
	// setKey applies set to key's known indices: none outside the
	// population, one unless VisitKnown streamed the key twice.
	setKey := func(key []byte, in bool) {
		for _, i := range p.knownWith(uint32(ribbon.Hash64(0, key))) {
			if bytes.Equal(p.knownKey(i), key) {
				set(i, in)
			}
		}
	}
	for _, k := range added {
		if _, revoked := p.revoked[string(k)]; revoked {
			setKey(k, false)
		}
	}
	for _, h := range stashed {
		for _, i := range p.knownWith(h) {
			if _, revoked := p.revoked[string(p.knownKey(i))]; !revoked {
				set(i, true)
			}
		}
	}
	for _, k := range removed {
		setKey(k, true)
	}
	return changed
}

// moveD3 moves level 3's key set, the keys of R that level 2 wrongly
// claims, by an epoch's churn and reports whether it changed. It holds
// while lvl2 stands, that is when moveD2 reported no change.
func (p *Publisher) moveD3(lvl2 *level, added, removed [][]byte) bool {
	changed := false
	for _, k := range removed {
		if _, in := p.d3[string(k)]; in {
			delete(p.d3, string(k))
			changed = true
		}
	}
	for _, k := range added {
		if _, revoked := p.revoked[string(k)]; revoked && lvl2.contains(1, k) {
			p.d3[string(k)] = k
			changed = true
		}
	}
	return changed
}

// d2Keys lists level 2's key set. The keys alias knownKeys.
func (p *Publisher) d2Keys() [][]byte {
	keys := make([][]byte, 0, len(p.d2))
	for i := range p.d2 {
		keys = append(keys, p.knownKey(i))
	}
	return keys
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

// level1 brings level 1 up to the epoch's additions: frozen solution +
// exact stash. It returns the truncated hashes stashed this epoch, or
// froze when it solved level 1 again instead.
func (p *Publisher) level1(added [][]byte) (stashed []uint32, froze bool, err error) {
	for _, k := range added {
		if h := uint32(ribbon.Hash64(0, k)); !p.stashSet[h] {
			if p.stashSet == nil {
				p.stashSet = make(map[uint32]bool)
			}
			p.stashSet[h] = true
			stashed = append(stashed, h)
		}
	}
	if p.lvl1.rib == nil || len(p.stashSet) > stashBudget(p.frozen) {
		// Freeze: solve level 1 exactly for the live set, sized with
		// only the solver's ~12% slack — no growth headroom, that is
		// the stash's job. The next delta is near-full-size, which the
		// stash budget keeps rare. A freeze that fails leaves stashSet
		// over budget, so the next epoch tries again.
		keys := p.revokedKeys()
		rib, bumps, err := ribbon.Build(0, keys, level1RBits)
		if err != nil {
			return nil, false, err
		}
		p.lvl1 = ribbonLevel(rib, packHashes(truncateHashes(bumps)))
		p.frozen, p.stashSet = len(keys), nil
		return nil, true, nil
	}
	if len(stashed) > 0 {
		// Append, never insert: the stash's wire order is arrival order,
		// so between freezes the encoded side list only grows at its
		// tail and the delta ships 4 bytes per new key. The sorted view
		// takes the day's hashes by merge, not by sorting the list again.
		n := len(p.lvl1.side)
		p.lvl1.side = append(p.lvl1.side[:n:n], packHashes(stashed)...)
		sorted := slices.Clone(stashed)
		slices.Sort(sorted)
		p.lvl1.sideSorted = mergeSorted(p.lvl1.sideSorted, sorted)
	}
	return stashed, false, nil
}

// stashBudget is how many stashed keys a chain tolerates before
// re-freezing: a sixteenth of the frozen set — at 4 bytes per stash
// entry against the solution's ~1 byte/key, that caps the snapshot
// bloat between freezes at ~25% of level 1. Floor 128 so small chains —
// per-issuer shards especially — still go weeks between the
// near-full-size re-freeze deltas on modest daily churn.
func stashBudget(frozen int) int {
	b := frozen / 16
	if b < 128 {
		b = 128
	}
	return b
}

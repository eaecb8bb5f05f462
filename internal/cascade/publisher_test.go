package cascade

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ribbon"
)

// churnChain drives a Publisher through a synthetic schedule that has
// every kind of day the incremental publisher distinguishes, and keeps
// its own model of R so the tests never ask the publisher what it
// believes. In each run of five days, two add ~60 keys (with repeats,
// already-revoked keys and keys outside the known population among them,
// and 15 removals beside them on even days), one is empty, one is noise
// only (re-adds of revoked keys, removes of keys that are not in R or not
// in the population at all) and one only removes. Day 0 is empty.
type churnChain struct {
	w       *synthWorld
	outside [][]byte // keys no VisitKnown ever streams
	pub     *Publisher
	visits  int // VisitKnown calls made by the publisher
	rng     *rand.Rand
	model   map[string]bool
	day     int
}

func newChurnChain(kind LevelKind) *churnChain {
	c := &churnChain{
		w:       newSynthWorld(11, 3, 6000, 0),
		outside: newSynthWorld(12, 3, 200, 0).keys,
		rng:     rand.New(rand.NewSource(13)),
		model:   make(map[string]bool),
	}
	c.pub = NewPublisher(PublishConfig{
		Parents: c.w.parents,
		VisitKnown: func(fn func(key []byte) bool) {
			c.visits++
			c.w.visit(fn)
		},
		MaxAge:         48 * time.Hour,
		Level1Capacity: 200, // outgrown within a week: the Bloom chain resizes
		LevelKind:      kind,
	})
	return c
}

// revokedKeys lists the model's R in a fixed order.
func (c *churnChain) revokedKeys() [][]byte {
	var out [][]byte
	for _, keys := range [][][]byte{c.w.keys, c.outside} {
		for _, k := range keys {
			if c.model[string(k)] {
				out = append(out, k)
			}
		}
	}
	return out
}

// step publishes the next day. changed reports whether the model's R
// moved, that is whether the day had net churn.
func (c *churnChain) step(t *testing.T) (now time.Time, snap, delta []byte, changed bool) {
	t.Helper()
	var adds, removes [][]byte
	d := c.day
	pickRevoked := func(n int) (out [][]byte) {
		rev := c.revokedKeys()
		for i := 0; i < n && len(rev) > 0; i++ {
			out = append(out, rev[c.rng.Intn(len(rev))])
		}
		return out
	}
	switch {
	case d == 0 || d%5 == 3:
	case d%5 == 4:
		adds = pickRevoked(2)
		for len(removes) < 5 {
			if k := c.w.keys[c.rng.Intn(len(c.w.keys))]; !c.model[string(k)] {
				removes = append(removes, k)
			}
		}
		removes = append(removes, []byte("never heard of it"))
	case d%5 == 0:
		removes = pickRevoked(10)
	default:
		for i := 0; i < 60; i++ {
			adds = append(adds, c.w.keys[c.rng.Intn(len(c.w.keys))])
		}
		adds = append(adds, adds[0], c.outside[c.rng.Intn(len(c.outside))])
		if d%2 == 0 {
			removes = append(pickRevoked(15), c.outside[0])
		}
	}
	for _, k := range adds {
		if !c.model[string(k)] {
			c.model[string(k)], changed = true, true
		}
	}
	for _, k := range removes {
		if c.model[string(k)] {
			delete(c.model, string(k))
			changed = true
		}
	}
	now = t0.AddDate(0, 0, d)
	snap, delta, err := c.pub.Advance(now, adds, removes)
	if err != nil {
		t.Fatalf("day %d: %v", d, err)
	}
	c.day++
	return now, snap, delta, changed
}

// checkVerdicts requires the snapshot to answer every population key and
// every outside key ever revoked as the model does.
func (c *churnChain) checkVerdicts(t *testing.T, snap []byte) {
	t.Helper()
	f, err := Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range c.w.keys {
		if f.Revoked(k) != c.model[string(k)] {
			t.Fatalf("day %d: key %d verdict %v, model says %v", c.day-1, i, f.Revoked(k), c.model[string(k)])
		}
	}
	for _, k := range c.outside {
		if c.model[string(k)] && !f.Revoked(k) {
			t.Fatalf("day %d: revoked key outside the population reads Good", c.day-1)
		}
	}
}

func forBothKinds(t *testing.T, fn func(t *testing.T, kind LevelKind)) {
	for _, kind := range []LevelKind{KindBloom, KindRibbon} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) { fn(t, kind) })
	}
}

// TestPublisherMatchesStreamingRebuild is the differential test for the
// incremental publisher: on every epoch, whatever the publisher did to
// get there (probe its retained digests, or reuse the previous levels),
// the snapshot is byte-equal to the streaming buildDeepLevels run fresh
// over the publisher's level 1, the model's R and a new population pass.
func TestPublisherMatchesStreamingRebuild(t *testing.T) {
	forBothKinds(t, func(t *testing.T, kind LevelKind) {
		c := newChurnChain(kind)
		rebuilds, reused := 0, 0
		level1Redone := false // a Bloom resize or a ribbon re-freeze happened
		capacity, stash := c.pub.capacity, 0
		for c.day < 40 {
			now, snap, _, changed := c.step(t)
			if changed {
				rebuilds++
			} else {
				reused++
			}
			levels, err := buildDeepLevels(c.pub.levels[0], c.model, c.w.visit, kind)
			if err != nil {
				t.Fatal(err)
			}
			want, err := assemble(levels, len(c.model), c.w.parents, BuildConfig{
				Epoch: uint32(c.day), BuiltAt: now, MaxAge: 48 * time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap, want.Encode()) {
				t.Fatalf("day %d (net churn %v): snapshot differs from the streaming rebuild", c.day-1, changed)
			}
			c.checkVerdicts(t, snap)
			if c.pub.capacity != capacity || c.pub.StashLen() < stash {
				level1Redone = true
			}
			capacity, stash = c.pub.capacity, c.pub.StashLen()
		}
		if rebuilds < 10 || reused < 10 {
			t.Fatalf("schedule has %d churn days and %d quiet days; want at least 10 of each", rebuilds, reused)
		}
		if !level1Redone {
			t.Fatal("chain never resized (Bloom) or re-froze (ribbon) its level 1")
		}
		if c.pub.NumRevoked() != len(c.model) {
			t.Fatalf("publisher holds %d revoked keys, model %d", c.pub.NumRevoked(), len(c.model))
		}
	})
}

// TestPublisherReadsKnownOnce pins the cost model's first term: one
// population pass per chain, however many epochs follow.
func TestPublisherReadsKnownOnce(t *testing.T) {
	forBothKinds(t, func(t *testing.T, kind LevelKind) {
		c := newChurnChain(kind)
		for c.day < 30 {
			c.step(t)
		}
		if c.visits != 1 {
			t.Fatalf("VisitKnown called %d times over %d epochs, want 1", c.visits, c.day)
		}
	})
}

// TestQuietEpochRestampsOnly: a day without net churn ships a delta that
// applies to the previous snapshot and yields the publisher's bytes, and
// those differ from the previous snapshot in the header's epoch, build
// time and enrollment cutoff (which follows the build time) and in the
// CRC, nowhere else.
func TestQuietEpochRestampsOnly(t *testing.T) {
	const stamped = 5 + 4 + 8 + 8 // magic and version, then epoch u32, builtUnix i64, cutoffUnix i64
	forBothKinds(t, func(t *testing.T, kind LevelKind) {
		c := newChurnChain(kind)
		var prev []byte
		quiet := 0
		for c.day < 20 {
			_, snap, delta, changed := c.step(t)
			if prev != nil && !changed {
				quiet++
				got, err := Apply(prev, delta)
				if err != nil {
					t.Fatalf("day %d: %v", c.day-1, err)
				}
				if !bytes.Equal(got, snap) {
					t.Fatalf("day %d: delta does not yield the publisher's snapshot", c.day-1)
				}
				if len(snap) != len(prev) ||
					!bytes.Equal(snap[:5], prev[:5]) ||
					!bytes.Equal(snap[stamped:len(snap)-crcSize], prev[stamped:len(prev)-crcSize]) {
					t.Fatalf("day %d: quiet epoch changed bytes outside epoch, build time, cutoff and CRC", c.day-1)
				}
				if bytes.Equal(snap[5:stamped], prev[5:stamped]) {
					t.Fatalf("day %d: quiet epoch was not re-stamped", c.day-1)
				}
				c.checkVerdicts(t, got)
			}
			prev = snap
		}
		if quiet < 5 {
			t.Fatalf("only %d quiet epochs in the schedule", quiet)
		}
	})
}

// TestContainsDigestMatchesContains: probing with a held digest is the
// same function as probing with the key, for ribbon levels (side list
// included), Bloom levels and the ribbon filter underneath, and none of
// the forms allocates.
func TestContainsDigestMatchesContains(t *testing.T) {
	w := newSynthWorld(14, 2, 4000, 1500)
	const salt = 3
	rib, bumped, err := ribbon.Build(salt, w.revoked(), deepRBits)
	if err != nil {
		t.Fatal(err)
	}
	// Force a side list whatever the solver bumped: stash a non-member.
	stashed := w.keys[len(w.keys)-1]
	side := packHashes(append(truncateHashes(bumped), uint32(ribbon.Hash64(salt, stashed))))
	ribLevel := ribbonLevel(rib, side)
	bloomLevel := newLevel(level1K, sizeLevel1(len(w.revoked())))
	for _, k := range w.revoked() {
		bloomLevel.add(salt, k)
	}
	if !ribLevel.contains(salt, stashed) {
		t.Fatal("side list does not force contains")
	}
	for _, k := range w.keys {
		d := ribbon.Sum(salt, k)
		m1, h1 := rib.Probe(salt, k)
		m2, h2 := rib.ProbeDigest(d)
		if m1 != m2 || h1 != h2 || h1 != ribbon.Hash64(salt, k) {
			t.Fatal("ribbon Probe and ProbeDigest(Sum) disagree")
		}
		for _, l := range []*level{&ribLevel, &bloomLevel} {
			if l.contains(salt, k) != l.containsDigest(d) {
				t.Fatal("contains and containsDigest(Sum) disagree")
			}
		}
	}
	key := w.keys[7]
	d := ribbon.Sum(salt, key)
	for name, fn := range map[string]func(){
		"ribbon.Probe":          func() { rib.Probe(salt, key) },
		"ribbon.ProbeDigest":    func() { rib.ProbeDigest(d) },
		"ribbon containsDigest": func() { ribLevel.containsDigest(d) },
		"ribbon contains":       func() { ribLevel.contains(salt, key) },
		"bloom containsDigest":  func() { bloomLevel.containsDigest(d) },
		"bloom contains":        func() { bloomLevel.contains(salt, key) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.2f per run", name, allocs)
		}
	}
}

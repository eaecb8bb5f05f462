package cascade

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/ribbon"
)

// collidingWorld draws a seeded population and returns a pair of its keys
// whose truncated level-1 hashes are equal, the rest of the keys, and the
// parents. 200,000 keys hold about four such pairs (birthday bound on 32
// bits); the draw is seeded, so the pair is the same in every run.
func collidingWorld(t testing.TB, nParents int) (a, b []byte, rest [][]byte, parents []Parent) {
	t.Helper()
	w := newSynthWorld(21, nParents, 200000, 0)
	seen := make(map[uint32]int, len(w.keys))
	ia, ib := -1, -1
	for i, k := range w.keys {
		h := uint32(ribbon.Hash64(0, k))
		if j, ok := seen[h]; ok {
			ia, ib = j, i
			break
		}
		seen[h] = i
	}
	if ia < 0 {
		t.Fatal("no pair of keys with equal truncated level-1 hashes in 200,000")
	}
	for i, k := range w.keys {
		if i != ia && i != ib {
			rest = append(rest, k)
		}
	}
	return w.keys[ia], w.keys[ib], rest, w.parents
}

// refChain drives a Publisher one scripted epoch at a time and holds
// every epoch to the from-scratch reference: the snapshot must equal the
// streaming buildDeepLevels run over level 1 as its wire bytes give it,
// the test's own R and a new population pass; the delta must equal
// MakeDelta from the previous snapshot to that one; every verdict must be
// the model's.
type refChain struct {
	kind    LevelKind
	parents []Parent
	known   [][]byte
	pub     *Publisher
	model   map[string]bool
	prev    []byte
	day     int
}

func newRefChain(kind LevelKind, parents []Parent, known [][]byte, capacity int) *refChain {
	c := &refChain{kind: kind, parents: parents, known: known, model: make(map[string]bool)}
	c.pub = NewPublisher(PublishConfig{
		Parents:        parents,
		VisitKnown:     c.visit,
		MaxAge:         48 * time.Hour,
		Level1Capacity: capacity,
		LevelKind:      kind,
	})
	return c
}

func (c *refChain) visit(fn func(key []byte) bool) {
	for _, k := range c.known {
		if !fn(k) {
			return
		}
	}
}

// move applies an epoch's churn to the model the way Advance documents
// it, adds first, and returns the net lists in the caller's order.
func (c *refChain) move(adds, removes [][]byte) (added, removed [][]byte) {
	for _, k := range adds {
		if !c.model[string(k)] {
			c.model[string(k)] = true
			added = append(added, k)
		}
	}
	for _, k := range removes {
		if c.model[string(k)] {
			delete(c.model, string(k))
			removed = append(removed, k)
		}
	}
	return added, removed
}

// advance publishes one epoch and checks it against the reference. It
// returns how many known digests the publisher probed to get there.
func (c *refChain) advance(t *testing.T, adds, removes [][]byte) (probed int) {
	t.Helper()
	added, removed := c.move(adds, removes)
	now := t0.AddDate(0, 0, c.day)
	c.day++
	before := c.pub.probed
	snap, delta, err := c.pub.Advance(now, adds, removes)
	if err != nil {
		t.Fatalf("day %d: %v", c.day-1, err)
	}

	lvl1 := c.pub.levels[0]
	if lvl1.kind == kindRibbon {
		if !slices.Equal(lvl1.sideSorted, sortSide(lvl1.side)) {
			t.Fatalf("day %d: level 1's maintained sorted view is not its side list sorted", c.day-1)
		}
		lvl1 = ribbonLevel(lvl1.rib, lvl1.side)
	}
	levels, err := buildDeepLevels(lvl1, c.model, c.visit, c.kind)
	if err != nil {
		t.Fatal(err)
	}
	f, err := assemble(levels, len(c.model), c.parents, BuildConfig{
		Epoch: c.pub.Epoch(), BuiltAt: now, MaxAge: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := f.Encode()
	if !bytes.Equal(snap, want) {
		t.Fatalf("day %d: snapshot differs from the from-scratch reference", c.day-1)
	}
	if c.prev == nil {
		if delta != nil {
			t.Fatalf("day %d: first epoch shipped a delta", c.day-1)
		}
	} else {
		if c.kind != KindBloom {
			added, removed = nil, nil
		}
		wantDelta, err := MakeDelta(c.prev, want, added, removed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(delta, wantDelta) {
			t.Fatalf("day %d: delta differs from the from-scratch reference", c.day-1)
		}
		if got, err := Apply(c.prev, delta); err != nil || !bytes.Equal(got, snap) {
			t.Fatalf("day %d: delta does not yield the snapshot (%v)", c.day-1, err)
		}
	}
	c.prev = snap

	dec, err := Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range c.known {
		if dec.Revoked(k) != c.model[string(k)] {
			t.Fatalf("day %d: known key %d reads %v, model says %v", c.day-1, i, dec.Revoked(k), c.model[string(k)])
		}
	}
	for k := range c.model {
		if !dec.Revoked([]byte(k)) {
			t.Fatalf("day %d: a revoked key reads Good", c.day-1)
		}
	}
	return c.pub.probed - before
}

// inD2 reports whether the publisher's ledger holds known key k in level
// 2's key set.
func (c *refChain) inD2(k []byte) bool {
	for i := range c.pub.d2 {
		if bytes.Equal(c.pub.knownKey(i), k) {
			return true
		}
	}
	return false
}

// TestLedgerMatchesFromScratch walks a chain through every rule the
// ledger has, each by construction, then through enough plain churn for
// several re-freezes (ribbon) and resizes (Bloom): once on a population
// of thousands under three parents, once on a one-parent chain the size
// of a per-issuer shard.
func TestLedgerMatchesFromScratch(t *testing.T) {
	for _, size := range []struct {
		name                       string
		parents, known             int
		first, perEpoch, dropEpoch int
		capacity                   int
	}{
		{"mono", 3, 4000, 300, 100, 60, 200},
		{"shard", 1, 300, 40, 30, 25, 20},
	} {
		a, b, rest, parents := collidingWorld(t, size.parents)
		known := append(append([][]byte(nil), rest[:size.known]...), a, b)
		outside := rest[size.known : size.known+50]
		t.Run(size.name, func(t *testing.T) {
			forBothKinds(t, func(t *testing.T, kind LevelKind) {
				c := newRefChain(kind, parents, known, size.capacity)
				ribbonChain := kind != KindBloom
				// wantDelta requires that an epoch on a standing level 1
				// moved the ledger instead of probing the population. A
				// Bloom level 1 stands only when the epoch ORs nothing in.
				wantDelta := func(what string, probed int, standing bool) {
					t.Helper()
					if standing && probed != 0 {
						t.Fatalf("%s: probed %d known digests, want the delta rules", what, probed)
					}
				}

				// Day 0: the first epoch, the full probe. Three keys
				// outside the population are revoked with the rest.
				first := append(append([][]byte(nil), known[:size.first]...), outside[:3]...)
				if probed := c.advance(t, first, nil); probed != len(known) {
					t.Fatalf("first epoch probed %d digests, want %d", probed, len(known))
				}

				// Rule 2: a is revoked after the freeze, so its truncated
				// hash is stashed, and b, known and not revoked, carries
				// the same one: level 1 now claims b.
				wantDelta("stash collision", c.advance(t, [][]byte{a}, nil), ribbonChain)
				if ribbonChain && !c.inD2(b) {
					t.Fatal("the stashed key's hash twin is not in level 2's key set")
				}

				// A key added and removed in one epoch: never in R, but
				// stashed, so level 2 has to clear it.
				x := known[size.first+1]
				wantDelta("add and remove in one epoch", c.advance(t, [][]byte{x}, [][]byte{x}), ribbonChain)
				if ribbonChain && !c.inD2(x) {
					t.Fatal("a key added and removed in one epoch is not in level 2's key set")
				}

				// Rule 3, on an epoch that only removes (a Bloom level 1
				// stands too): known keys, and one outside the population.
				gone := known[:5]
				wantDelta("removes only", c.advance(t, nil, append(append([][]byte(nil), gone...), outside[0])), true)
				for _, k := range gone {
					if !c.inD2(k) {
						t.Fatal("a removed known key is not in level 2's key set")
					}
				}

				// Rule 1: a removed key is revoked again and leaves.
				wantDelta("re-add", c.advance(t, gone[:2], nil), ribbonChain)
				if ribbonChain && c.inD2(gone[0]) {
					t.Fatal("a re-added key stayed in level 2's key set")
				}

				// Churn outside the population moves R and no known key.
				// Four of the keys come and go on the day: level 2 claims
				// about half of them, and none belongs in level 3's set.
				wantDelta("outside churn", c.advance(t, outside[10:18], append([][]byte{outside[1], outside[40]}, outside[14:18]...)), ribbonChain)
				// A quiet epoch, then a and x's twin cases in reverse:
				// removing a leaves b claimed through the stash entry.
				c.advance(t, nil, nil)
				wantDelta("remove the stashed key", c.advance(t, nil, [][]byte{a}), true)
				if !c.inD2(a) || (ribbonChain && !c.inD2(b)) {
					t.Fatal("after removing the stashed key, it and its twin should both be in level 2's key set")
				}

				// Plain churn across several level-1 replacements.
				rng := rand.New(rand.NewSource(22))
				redone, fullProbes := 0, 0
				capacity, stash := c.pub.capacity, c.pub.StashLen()
				for i := 0; i < 25; i++ {
					var adds, removes [][]byte
					for len(adds) < size.perEpoch {
						if k := known[rng.Intn(len(known))]; !c.model[string(k)] {
							adds = append(adds, k)
						}
					}
					if i%2 == 1 {
						for k := range c.model {
							if len(removes) == size.dropEpoch {
								break
							}
							removes = append(removes, []byte(k))
						}
					}
					if i%5 == 4 {
						adds = nil
					}
					if c.advance(t, adds, removes) != 0 {
						fullProbes++
					}
					if c.pub.capacity != capacity || c.pub.StashLen() < stash {
						redone++
					}
					capacity, stash = c.pub.capacity, c.pub.StashLen()
				}
				if redone < 2 {
					t.Fatalf("level 1 was replaced %d times in 25 epochs of churn, want several", redone)
				}
				if ribbonChain && fullProbes != redone {
					t.Fatalf("%d full probes for %d re-freezes", fullProbes, redone)
				}
			})
		})
	}
}

// TestChurnEpochTouchesItsChurn: on a ribbon chain the population is
// probed on the first epoch and on re-freezes, and on no other day.
func TestChurnEpochTouchesItsChurn(t *testing.T) {
	w := newSynthWorld(23, 4, 20000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit, LevelKind: KindRibbon})
	rng := rand.New(rand.NewSource(24))
	var revoked [][]byte
	freezes, probes := 0, 0
	for day := 0; day <= 50; day++ {
		n := 30
		if day == 0 {
			n = 1000
		}
		var adds, removes [][]byte
		for i := 0; i < n; i++ {
			adds = append(adds, w.keys[rng.Intn(len(w.keys))])
		}
		if day%3 == 2 {
			removes, revoked = revoked[:10], revoked[10:]
		}
		revoked = append(revoked, adds...)
		rib, probed := pub.lvl1.rib, pub.probed
		if _, _, err := pub.Advance(t0.AddDate(0, 0, day), adds, removes); err != nil {
			t.Fatal(err)
		}
		froze := pub.lvl1.rib != rib
		if froze {
			freezes++
		}
		switch got := pub.probed - probed; {
		case froze && got != len(w.keys):
			t.Fatalf("day %d: a freeze probed %d digests, want all %d", day, got, len(w.keys))
		case !froze && got != 0:
			t.Fatalf("day %d: a churn epoch on a standing level 1 probed %d known digests", day, got)
		case got != 0:
			probes++
		}
	}
	if freezes < 3 || probes != freezes {
		t.Fatalf("%d freezes and %d full probes in 51 epochs; want several, and as many of one as of the other", freezes, probes)
	}
}

// TestFailedRebuildDropsLedger: an epoch whose deep-level build fails has
// already moved R and the ledger. The next epoch, quiet or not, must not
// publish from either: it probes the population again and its bytes are
// the from-scratch reference's.
func TestFailedRebuildDropsLedger(t *testing.T) {
	forBothKinds(t, func(t *testing.T, kind LevelKind) {
		w := newSynthWorld(25, 2, 3000, 0)
		c := newRefChain(kind, w.parents, w.keys, 4096)
		c.advance(t, w.keys[:400], nil)
		c.advance(t, w.keys[400:420], nil)
		boom := errors.New("level build failed")
		for round, next := range [][2][][]byte{
			{nil, nil},                             // a quiet epoch follows the failure
			{w.keys[500:520], w.keys[5:10]},        // a churn epoch follows it
			{w.keys[5:6], nil},                     // one that re-adds what the failed epoch removed
			{w.keys[600:601], w.keys[600:601]},     // one whose only key comes and goes
			{[][]byte{[]byte("outside")}, nil},     // one that moves no known key
			{nil, [][]byte{[]byte("outside"), {}}}, // one that only removes
		} {
			lo := 1000 + 40*round
			adds, removes := w.keys[lo:lo+30], w.keys[round*3:round*3+3]
			c.move(adds, removes)
			c.pub.failRebuild = func() error { return boom }
			if _, _, err := c.pub.Advance(t0.AddDate(0, 0, c.day), adds, removes); !errors.Is(err, boom) {
				t.Fatalf("round %d: Advance returned %v, want the build's error", round, err)
			}
			c.pub.failRebuild = nil
			if probed := c.advance(t, next[0], next[1]); probed != len(w.keys) {
				t.Fatalf("round %d: the epoch after a failed build probed %d digests, want all %d", round, probed, len(w.keys))
			}
			c.advance(t, w.keys[lo+30:lo+35], nil)
		}
	})
}

// TestPublishedLevelsAreNotWritten holds epoch n's levels in a Filter and
// reads it while twenty more epochs stash into level 1: under -race a
// publisher that inserted the day's hashes into the published sorted view
// instead of a copy fails here.
func TestPublishedLevelsAreNotWritten(t *testing.T) {
	w := newSynthWorld(26, 2, 3000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit, LevelKind: KindRibbon})
	if _, _, err := pub.Advance(t0, w.keys[:2500], nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pub.Advance(t0.AddDate(0, 0, 1), w.keys[2500:2510], nil); err != nil {
		t.Fatal(err)
	}
	held, err := assemble(pub.levels, pub.NumRevoked(), w.parents, BuildConfig{Epoch: 2, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for i, k := range w.keys {
				if held.Revoked(k) != (i < 2510) {
					t.Errorf("held epoch: key %d reads %v", i, held.Revoked(k))
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	rib := pub.lvl1.rib
	for day := 2; day < 22; day++ {
		lo := 2510 + 5*(day-2)
		if _, _, err := pub.Advance(t0.AddDate(0, 0, day), w.keys[lo:lo+5], nil); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if pub.lvl1.rib != rib {
		t.Fatal("the chain re-froze: the later epochs did not extend the held level's side list")
	}
}

// BenchmarkPublisherChurnEpoch times one churn epoch on a standing ribbon
// level 1: 100,000 known keys, 5,000 of them revoked, 10 more each epoch.
func BenchmarkPublisherChurnEpoch(b *testing.B) {
	w := newSynthWorld(27, 8, 100000, 5000)
	var pub *Publisher
	next, day := len(w.keys), 0
	for i := 0; i < b.N; i++ {
		if next+10 > len(w.keys) {
			b.StopTimer()
			pub = NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit, LevelKind: KindRibbon})
			if _, _, err := pub.Advance(t0, w.revoked(), nil); err != nil {
				b.Fatal(err)
			}
			next = w.nRev
			b.StartTimer()
		}
		day++
		if _, _, err := pub.Advance(t0.AddDate(0, 0, day), w.keys[next:next+10], nil); err != nil {
			b.Fatal(err)
		}
		next += 10
	}
}

package cascade

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/ribbon"
)

// TestRibbonBuildExactness: level 1 is a ribbon and each deep level is
// whichever representation encodes smaller for its key count, so a build
// whose deep levels run from hundreds of keys down to a handful carries
// both kinds; verdicts stay exact on a population where most enrolled
// keys are revoked, which swaps the roles of the two sides.
func TestRibbonBuildExactness(t *testing.T) {
	w := newSynthWorld(9, 8, 30000, 20000)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{Epoch: 1, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[levelKind]int{}
	for i := range f.levels {
		kinds[f.levels[i].kind]++
	}
	if f.levels[0].kind != kindRibbon || kinds[kindRibbon] < 2 || kinds[kindBloom] == 0 {
		t.Fatalf("level kinds %v (level 1 %d); want a ribbon level 1 and both kinds below it", kinds, f.levels[0].kind)
	}
	for i, k := range w.keys {
		want := i < w.nRev
		if got := f.Revoked(k); got != want {
			t.Fatalf("key %d: Revoked = %v, want %v", i, got, want)
		}
	}
}

// TestRibbonEncodeDecodeRoundTrip pins the wire form of a publisher
// snapshot whose level 1 carries a stash: version byte 2, the side list
// and its zero padding, byte-identical re-encode, verdicts preserved
// across the trip.
func TestRibbonEncodeDecodeRoundTrip(t *testing.T) {
	w := newSynthWorld(2, 4, 8000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit, MaxAge: 48 * time.Hour})
	if _, _, err := pub.Advance(t0, w.keys[:300], nil); err != nil {
		t.Fatal(err)
	}
	enc, _, err := pub.Advance(t0.AddDate(0, 0, 1), w.keys[300:321], nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc[4] != snapVersion {
		t.Fatalf("snapshot encoded as version %d", enc[4])
	}
	g, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.levels[0].side) / 4; n < 21 || sideCapEntries(n, 0) == n {
		t.Fatalf("level 1 carries %d side entries (capacity %d); want the stash, padded", n, sideCapEntries(n, 0))
	}
	if g.Epoch() != 2 || !g.BuiltAt().Equal(t0.AddDate(0, 0, 1)) || g.NumRevoked() != 321 || g.SizeBytes() != len(enc) {
		t.Fatalf("decoded header drift: %+v", g)
	}
	for i, k := range w.keys {
		if g.Revoked(k) != (i < 321) {
			t.Fatalf("key %d verdict drift after round trip", i)
		}
	}
	if !bytes.Equal(g.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
}

// TestRibbonChainRoundTrip: through daily churn (including removals and
// a stash-triggered re-freeze at 40 adds/day over 8 days) every delta
// carries empty add and remove lists and is a function of its two
// snapshots alone — MakeDelta over them rebuilds it byte for byte.
func TestRibbonChainRoundTrip(t *testing.T) {
	for _, removals := range []bool{false, true} {
		name := "adds-only"
		if removals {
			name = "with-removals"
		}
		t.Run(name, func(t *testing.T) {
			_, snaps, deltas, _ := runChain(t, 8, removals)
			for i, d := range deltas {
				if d[21] != 0 || d[22] != 0 {
					t.Fatalf("delta %d: add and remove counts %d, %d; want 0, 0", i, d[21], d[22])
				}
				again, err := MakeDelta(snaps[i], snaps[i+1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, d) {
					t.Fatalf("delta %d is not MakeDelta of its two snapshots", i)
				}
			}
		})
	}
}

// TestRibbonStashAndRefreeze: between freezes the frozen level-1
// solution must not move (deltas stay tail-sized), and once the stash
// outgrows its budget the publisher re-freezes and the stash resets.
func TestRibbonStashAndRefreeze(t *testing.T) {
	w := newSynthWorld(8, 2, 9000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	sawStash, sawRefreeze := false, false
	prevStash := 0
	for day := 0; day < 10; day++ {
		adds := w.keys[day*40 : (day+1)*40]
		if _, _, err := pub.Advance(t0.AddDate(0, 0, day), adds, nil); err != nil {
			t.Fatal(err)
		}
		if pub.StashLen() > 0 {
			sawStash = true
		}
		if day > 0 && pub.StashLen() < prevStash {
			sawRefreeze = true
		}
		prevStash = pub.StashLen()
	}
	if !sawStash {
		t.Fatal("chain never stashed a key")
	}
	if !sawRefreeze {
		t.Fatal("stash never triggered a re-freeze (budget too large for this churn?)")
	}
	f, err := Decode(pub.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range w.keys {
		if f.Revoked(k) != (i < 400) {
			t.Fatalf("verdict drift at key %d across refreeze", i)
		}
	}
}

// TestRibbonRemovalFlipsVerdict: a key revoked after the freeze is
// claimed by level 1's stash, not its solution; removing it keeps the
// stash entry (level 1's bytes do not move) and the rebuilt level 2
// whitelists it.
func TestRibbonRemovalFlipsVerdict(t *testing.T) {
	w := newSynthWorld(7, 2, 4000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	victim := w.keys[0]
	if _, _, err := pub.Advance(t0, w.keys[1:20], nil); err != nil {
		t.Fatal(err)
	}
	s1, _, err := pub.Advance(t0.AddDate(0, 0, 1), [][]byte{victim}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pub.StashLen() != 1 {
		t.Fatalf("stash holds %d keys after one post-freeze add", pub.StashLen())
	}
	s2, _, err := pub.Advance(t0.AddDate(0, 0, 2), nil, [][]byte{victim})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := Decode(s1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Decode(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Revoked(victim) || f2.Revoked(victim) {
		t.Fatalf("stashed key reads %v, then %v after its removal; want true, false", f1.Revoked(victim), f2.Revoked(victim))
	}
	if !f2.Revoked(w.keys[1]) {
		t.Fatal("unrelated key lost")
	}
	if pub.StashLen() != 1 || !f2.levels[0].contains(0, victim) {
		t.Fatal("the removal dropped the stash entry")
	}
	offs := levelOffsets(f1)
	if levelOffsets(f2)[1] != offs[1] || !bytes.Equal(s1[offs[0]:offs[1]], s2[offs[0]:offs[1]]) {
		t.Fatal("a removal rewrote level 1")
	}
}

// TestV2DecodeRejects drives the per-level decode paths with CRC-valid
// but structurally hostile inputs: unknown level kinds, a level 1 that
// is not a ribbon, versions other than 2.
func TestV2DecodeRejects(t *testing.T) {
	w := newSynthWorld(4, 2, 6000, 200)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{Epoch: 1, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	enc := f.Encode()
	if _, err := Decode(enc); err != nil {
		t.Fatalf("pristine v2 rejected: %v", err)
	}
	kindOff := headerSize + f.NumParents()*ParentSize // level 1's kind byte
	hostile := map[string]func([]byte){
		"unknown kind":    func(b []byte) { b[kindOff] = 7 },
		"kind flip":       func(b []byte) { b[kindOff] = byte(kindBloom) }, // ribbon payload parsed as Bloom
		"version 3":       func(b []byte) { b[4] = 3 },
		"v1 with ribbons": func(b []byte) { b[4] = 1 },
	}
	for name, mutate := range hostile {
		mut := append([]byte(nil), enc...)
		mutate(mut)
		if _, err := Decode(refence(mut)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Well-formed version-2 files whose level 1 is Bloom: alone, and above
	// a ribbon level 2.
	bloom1 := v2Level(kindBloom, append(bloomHeader(7, 64), make([]byte, 8)...))
	rib, _, err := ribbon.Build(1, w.keys[:50], deepRBits)
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string][]byte{
		"all-Bloom":          craft(snapVersion, bloom1),
		"Bloom above ribbon": craft(snapVersion, bloom1, v2Level(kindRibbon, rib.AppendEncode(nil))),
	} {
		if _, err := Decode(snap); err == nil || !strings.Contains(err.Error(), "level 1 is kind 0, not a ribbon") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// TestDecodeBoundsInt64 is the 32-bit regression test for the decode
// size bounds: a Bloom level header claiming mBits right at the cap
// (maxLevelBytes·8 = 2^35) must fail as *truncated* — the byte-count
// comparison happens in int64, so it cannot wrap to a small positive
// int on 32-bit platforms and read out of bounds — while one past the
// cap fails the explicit range check.
func TestDecodeBoundsInt64(t *testing.T) {
	rib, _, err := ribbon.Build(0, nil, level1RBits)
	if err != nil {
		t.Fatal(err)
	}
	lvl1 := v2Level(kindRibbon, rib.AppendEncode(nil))
	craftAt := func(mBits uint64) []byte {
		return craft(snapVersion, lvl1, append([]byte{byte(kindBloom)}, bloomHeader(1, mBits)...))
	}
	atCap := uint64(maxLevelBytes) * 8
	if _, err := Decode(craftAt(atCap)); err == nil || !strings.Contains(err.Error(), "truncated level bits") {
		t.Errorf("mBits at cap: err = %v, want truncated", err)
	}
	if _, err := Decode(craftAt(atCap + 1)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("mBits past cap: err = %v, want out of range", err)
	}
	// A value whose byte count would wrap a 32-bit int to something small
	// (2^35 bits → 2^32 bytes → int32 wraps to 0) must also read as
	// truncated, never as a zero-length level.
	if _, err := Decode(craftAt(1 << 34)); err == nil || !strings.Contains(err.Error(), "truncated level bits") {
		t.Errorf("mBits 2^34: err = %v, want truncated", err)
	}
}

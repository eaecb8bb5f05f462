package cascade

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// synthWorld builds a deterministic synthetic population: nPop keys
// under nParents issuers, the first nRev of them revoked.
type synthWorld struct {
	parents []Parent
	keys    [][]byte
	nRev    int
}

func newSynthWorld(seed int64, nParents, nPop, nRev int) *synthWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &synthWorld{nRev: nRev}
	for i := 0; i < nParents; i++ {
		var p Parent
		rng.Read(p[:])
		w.parents = append(w.parents, p)
	}
	for i := 0; i < nPop; i++ {
		// Nonzero lead byte keeps the serial canonical; the embedded
		// counter keeps every key distinct.
		serial := make([]byte, 5)
		serial[0] = byte(1 + rng.Intn(255))
		binary.BigEndian.PutUint32(serial[1:], uint32(i))
		w.keys = append(w.keys, AppendKey(nil, w.parents[rng.Intn(nParents)], serial))
	}
	return w
}

func (w *synthWorld) revoked() [][]byte { return w.keys[:w.nRev] }

func (w *synthWorld) visit(fn func(key []byte) bool) {
	for _, k := range w.keys {
		if !fn(k) {
			return
		}
	}
}

var t0 = time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)

// levelOffsets returns the file offset of each level's kind byte in f's
// encoding.
func levelOffsets(f *Filter) []int {
	offs := make([]int, len(f.levels))
	pos := headerSize + len(f.parents)
	for i := range f.levels {
		l := &f.levels[i]
		offs[i] = pos
		pos++
		if l.kind == kindRibbon {
			pos += l.rib.EncodedLen()
		} else {
			pos += levelHeaderSize + len(l.bits)
		}
		pos += sideCountSize + 4*sideCapEntries(len(l.side)/4, i)
	}
	return offs
}

// craft frames raw level encodings as a CRC-valid snapshot of the given
// version with no parents, so a test can state a file the encoder never
// writes.
func craft(version byte, levels ...[]byte) []byte {
	b := append([]byte(snapMagic), version)
	b = binary.LittleEndian.AppendUint32(b, 1) // epoch
	b = binary.LittleEndian.AppendUint64(b, uint64(t0.Unix()))
	b = binary.LittleEndian.AppendUint64(b, uint64(t0.Unix()))
	b = binary.LittleEndian.AppendUint32(b, 0) // maxAge
	b = binary.LittleEndian.AppendUint32(b, 0) // nRevoked
	b = binary.LittleEndian.AppendUint32(b, 0) // nParents
	b = binary.LittleEndian.AppendUint32(b, uint32(len(levels)))
	for _, l := range levels {
		b = append(b, l...)
	}
	return binary.LittleEndian.AppendUint32(b, CRC(b))
}

// bloomHeader is a Bloom level's k and mBits fields; the bits follow.
func bloomHeader(k uint32, mBits uint64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, k), mBits)
}

// v2Level frames one level payload the way version 2 does: kind byte,
// payload, empty side list.
func v2Level(kind levelKind, payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte{byte(kind)}, payload...), 0)
}

// TestBuildExactness is the core zero-FP/zero-FN property on synthetic
// data: every enrolled key, revoked or not, gets the ground-truth
// verdict. The population is big enough that level 1 is guaranteed to
// produce false positives, so the deep levels are actually exercised.
func TestBuildExactness(t *testing.T) {
	w := newSynthWorld(1, 8, 30000, 700)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{Epoch: 1, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumLevels() < 2 {
		t.Fatalf("NumLevels = %d; population did not exercise the cascade", f.NumLevels())
	}
	for i, k := range w.keys {
		want := i < w.nRev
		if got := f.Revoked(k); got != want {
			t.Fatalf("key %d: Revoked = %v, want %v", i, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	w := newSynthWorld(2, 4, 8000, 300)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{
		Epoch: 7, BuiltAt: t0, MaxAge: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := f.Encode()
	if len(enc) != f.SizeBytes() {
		t.Errorf("SizeBytes = %d, encoded %d", f.SizeBytes(), len(enc))
	}
	g, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != 7 || !g.BuiltAt().Equal(t0) || g.NumRevoked() != 300 ||
		g.NumParents() != 4 || g.NumLevels() != f.NumLevels() {
		t.Fatalf("decoded header drift: %+v", g)
	}
	for i, k := range w.keys {
		if g.Revoked(k) != (i < w.nRev) {
			t.Fatalf("key %d verdict drift after round trip", i)
		}
	}
	if !bytes.Equal(g.Encode(), enc) {
		t.Fatal("re-encode is not byte-identical")
	}
	if !g.FreshAt(t0.Add(47*time.Hour)) || g.FreshAt(t0.Add(49*time.Hour)) {
		t.Error("FreshAt ignores max-age")
	}
}

func TestCoversEnrollment(t *testing.T) {
	w := newSynthWorld(3, 4, 2000, 50)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{Epoch: 1, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range w.parents {
		if !f.EnrolledParent(p) {
			t.Fatal("enrolled parent not found")
		}
		if !f.Covers(p, t0.Add(-time.Hour)) {
			t.Error("cert issued before cutoff should be covered")
		}
		if f.Covers(p, t0) || f.Covers(p, t0.Add(time.Hour)) {
			t.Error("cert issued at/after cutoff must not be covered")
		}
	}
	var stranger Parent
	stranger[0] = 0xfe
	if f.EnrolledParent(stranger) || f.Covers(stranger, t0.Add(-time.Hour)) {
		t.Error("unenrolled parent claimed")
	}
}

// TestDecodeRejectsCorruption drives the decoder through truncations,
// bit flips, and CRC-valid-but-semantically-hostile mutations. None may
// panic; all must error.
func TestDecodeRejectsCorruption(t *testing.T) {
	w := newSynthWorld(4, 2, 3000, 100)
	f, err := Build(w.revoked(), w.visit, w.parents, BuildConfig{Epoch: 1, BuiltAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	enc := f.Encode()
	bloomOff := -1 // the k field of the first deep level encoded as Bloom
	for i, off := range levelOffsets(f) {
		if f.levels[i].kind == kindBloom {
			bloomOff = off + 1
			break
		}
	}
	if bloomOff < 0 {
		t.Fatal("build has no Bloom deep level to corrupt")
	}

	for cut := 0; cut < len(enc); cut += 97 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	for off := 0; off < len(enc); off += 131 {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x10
		if _, err := Decode(mut); err == nil {
			t.Fatalf("accepted bit flip at %d", off)
		}
	}
	// Semantically hostile with a recomputed (valid) CRC: the decoder
	// must still reject on structural checks.
	hostile := map[string]func([]byte){
		"zero levels":     func(b []byte) { binary.LittleEndian.PutUint32(b[37:], 0) },
		"too many levels": func(b []byte) { binary.LittleEndian.PutUint32(b[37:], 1000) },
		"huge parents":    func(b []byte) { binary.LittleEndian.PutUint32(b[33:], 1<<23) },
		"zero hash count": func(b []byte) { binary.LittleEndian.PutUint32(b[bloomOff:], 0) },
		"oversized mbits": func(b []byte) { binary.LittleEndian.PutUint64(b[bloomOff+4:], 1<<60) },
		"unsorted parents": func(b []byte) {
			p := b[headerSize : headerSize+2*ParentSize]
			q := make([]byte, ParentSize)
			copy(q, p[:ParentSize])
			copy(p[:ParentSize], p[ParentSize:])
			copy(p[ParentSize:], q)
		},
	}
	for name, mutate := range hostile {
		mut := append([]byte(nil), enc...)
		mutate(mut)
		if _, err := Decode(refence(mut)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A well-formed version-1 (all-Bloom) file: a format older builds
	// wrote and this one no longer reads.
	v1 := craft(1, append(bloomHeader(7, 64), make([]byte, 8)...))
	if _, err := Decode(v1); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Errorf("version-1 snapshot: err = %v", err)
	}
}

// runChain simulates daily churn for publisher tests: a growing
// population with 40 adds a day and occasional removals.
func runChain(t *testing.T, days int, withRemovals bool) (*Publisher, [][]byte, [][]byte, *synthWorld) {
	t.Helper()
	w := newSynthWorld(5, 4, 12000, 0)
	pub := NewPublisher(PublishConfig{
		Parents:    w.parents,
		VisitKnown: w.visit,
		MaxAge:     72 * time.Hour,
	})
	rng := rand.New(rand.NewSource(99))
	var snaps, deltas [][]byte
	revoked := map[int]bool{}
	for day := 0; day < days; day++ {
		var adds, removes [][]byte
		for i := 0; i < 40; i++ {
			idx := rng.Intn(len(w.keys))
			if !revoked[idx] {
				revoked[idx] = true
				adds = append(adds, w.keys[idx])
			}
		}
		if withRemovals && day%3 == 2 {
			n := 0
			for idx := range revoked {
				if n >= 10 {
					break
				}
				delete(revoked, idx)
				removes = append(removes, w.keys[idx])
				n++
			}
		}
		snap, delta, err := pub.Advance(t0.AddDate(0, 0, day), adds, removes)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
		if day == 0 {
			if delta != nil {
				t.Fatal("first epoch must have no delta")
			}
		} else {
			if delta == nil {
				t.Fatal("missing delta")
			}
			deltas = append(deltas, delta)
		}
	}
	// Ground-truth check on the final snapshot.
	f, err := Decode(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	for idx, k := range w.keys {
		if f.Revoked(k) != revoked[idx] {
			t.Fatalf("day %d: key %d verdict %v, want %v", days-1, idx, !revoked[idx], revoked[idx])
		}
	}
	return pub, snaps, deltas, w
}

// TestDeltaChainRoundTrip is the delta round-trip property: applying N
// daily deltas to the day-0 snapshot yields bytes identical (same FNV
// digest) to the publisher's fresh day-N snapshot — including with
// removals in the chain, and across a delta-chain compaction.
func TestDeltaChainRoundTrip(t *testing.T) {
	for _, removals := range []bool{false, true} {
		name := "adds-only"
		if removals {
			name = "with-removals"
		}
		t.Run(name, func(t *testing.T) {
			_, snaps, deltas, _ := runChain(t, 8, removals)
			cur := snaps[0]
			for i, d := range deltas {
				next, err := Apply(cur, d)
				if err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				if !bytes.Equal(next, snaps[i+1]) || Digest(next) != Digest(snaps[i+1]) {
					t.Fatalf("delta %d: reconstruction not byte-identical", i)
				}
				cur = next
			}
			// Compaction: one merged delta takes day 0 straight to day N.
			merged, err := Compact(snaps[0], deltas)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Apply(snaps[0], merged)
			if err != nil {
				t.Fatal(err)
			}
			if Digest(got) != Digest(snaps[len(snaps)-1]) {
				t.Fatal("compacted delta does not reproduce the final snapshot")
			}
			if len(merged) >= lenSum(deltas) {
				t.Errorf("compacted delta (%d B) not smaller than chain (%d B)", len(merged), lenSum(deltas))
			}
		})
	}
}

func lenSum(bs [][]byte) int {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return n
}

// TestDeltaFences pins the epoch fence: a delta applied to anything but
// its exact base errors out instead of corrupting the filter.
func TestDeltaFences(t *testing.T) {
	_, snaps, deltas, _ := runChain(t, 4, false)
	if _, err := Apply(snaps[0], deltas[1]); err == nil {
		t.Error("applied day-2 delta to day-0 base")
	}
	if _, err := Apply(snaps[2], deltas[0]); err == nil {
		t.Error("applied day-1 delta to day-2 base")
	}
	tampered := append([]byte(nil), snaps[0]...)
	tampered[headerSize+3] ^= 1
	if _, err := Apply(tampered, deltas[0]); err == nil {
		t.Error("applied delta to tampered base")
	}
	// Fence skipping via compaction is equally impossible.
	if _, err := Compact(snaps[1], deltas); err == nil {
		t.Error("compacted a chain against the wrong base")
	}
}

// TestDeltaSizeTracksChurn: on a day level 1 stands, the delta copies its
// frozen solution from the base instead of shipping it; what it carries
// is the header, the day's stash entries and what lies past them. Deep
// levels whose key set moved are solved again and ship whole, so on a
// chain whose snapshot is mostly deep levels a day's delta comes close to
// the snapshot's size: the bound below is the solution, not a fraction.
func TestDeltaSizeTracksChurn(t *testing.T) {
	w := newSynthWorld(5, 4, 12000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	standing := 0
	for day := 0; day < 6; day++ {
		adds := w.keys[2000+40*day : 2000+40*(day+1)]
		if day == 0 {
			adds = w.keys[:2000]
		}
		rib := pub.lvl1.rib
		snap, d, err := pub.Advance(t0.AddDate(0, 0, day), adds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if day == 0 || pub.lvl1.rib != rib {
			continue
		}
		standing++
		if solution := rib.EncodedLen(); len(d) > len(snap)-solution+64 {
			t.Errorf("day %d: delta is %d B of a %d B snapshot whose frozen level 1 is %d B — it re-ships level 1", day, len(d), len(snap), solution)
		}
	}
	if standing < 3 {
		t.Fatalf("level 1 stood on %d of 5 days; the test measures nothing", standing)
	}
}

// TestPublisherMatchesBuild: with no removals, on a day that solves level
// 1 again (here the last, when four days of adds outgrow the stash), the
// chain's snapshot must be byte-identical to a from-scratch Build with
// the same parameters — the incremental path cannot drift.
func TestPublisherMatchesBuild(t *testing.T) {
	pub, snaps, _, w := runChain(t, 5, false)
	if pub.StashLen() != 0 {
		t.Fatalf("the last epoch stashed %d keys instead of re-freezing", pub.StashLen())
	}
	f, err := Decode(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	var revoked [][]byte
	for _, k := range w.keys {
		if f.Revoked(k) {
			revoked = append(revoked, k)
		}
	}
	if len(revoked) != pub.NumRevoked() {
		t.Fatalf("verdict count %d != publisher set %d", len(revoked), pub.NumRevoked())
	}
	fresh, err := Build(revoked, w.visit, w.parents, BuildConfig{
		Epoch:   pub.Epoch(),
		BuiltAt: f.BuiltAt(),
		MaxAge:  72 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Encode(), snaps[len(snaps)-1]) {
		t.Fatal("incremental snapshot drifted from from-scratch build")
	}
}

// TestRemovalFlipsVerdict: removing a key must flip its verdict to Good
// while level 1's bytes stay untouched (the whitelist path).
func TestRemovalFlipsVerdict(t *testing.T) {
	w := newSynthWorld(7, 2, 4000, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	victim := w.keys[0]
	s1, _, err := pub.Advance(t0, [][]byte{victim, w.keys[1]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := Decode(s1)
	if !f1.Revoked(victim) {
		t.Fatal("added key not revoked")
	}
	s2, _, err := pub.Advance(t0.AddDate(0, 0, 1), nil, [][]byte{victim})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := Decode(s2)
	if f2.Revoked(victim) {
		t.Fatal("removed key still revoked")
	}
	if f2.Revoked(w.keys[1]) != true {
		t.Fatal("unrelated key lost")
	}
	offs := levelOffsets(f1)
	if f1.NumLevels() < 2 || levelOffsets(f2)[1] != offs[1] || !bytes.Equal(s1[offs[0]:offs[1]], s2[offs[0]:offs[1]]) {
		t.Fatal("a removal rewrote level 1")
	}
}

func TestAppendKeyCanonicalizesSerial(t *testing.T) {
	var p Parent
	p[0] = 9
	a := AppendKey(nil, p, []byte{0x00, 0x00, 0x42})
	b := AppendKey(nil, p, []byte{0x42})
	z := AppendKey(nil, p, []byte{0x00})
	if !bytes.Equal(a, b) {
		t.Error("padded serial maps to a different key")
	}
	if len(z) != ParentSize {
		t.Error("zero serial must contribute no bytes")
	}
}

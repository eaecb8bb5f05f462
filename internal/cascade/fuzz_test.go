package cascade

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

// fuzzArtifacts builds one small publisher chain and returns (base
// snapshot, next snapshot, the delta between them) as fuzz seed material.
func fuzzArtifacts(f *testing.F) (snap0, snap1, delta []byte) {
	f.Helper()
	w := newSynthWorld(11, 2, 1500, 0)
	pub := NewPublisher(PublishConfig{
		Parents:    w.parents,
		VisitKnown: w.visit,
		MaxAge:     48 * time.Hour,
	})
	snap0, _, err := pub.Advance(t0, w.keys[:60], nil)
	if err != nil {
		f.Fatal(err)
	}
	snap1, delta, err = pub.Advance(t0.AddDate(0, 0, 1), w.keys[60:90], w.keys[:5])
	if err != nil {
		f.Fatal(err)
	}
	return snap0, snap1, delta
}

// refence recomputes the trailing CRC so a mutation survives the frame
// check and exercises the semantic validation behind it.
func refence(b []byte) []byte {
	if len(b) >= crcSize {
		binary.LittleEndian.PutUint32(b[len(b)-crcSize:], CRC(b[:len(b)-crcSize]))
	}
	return b
}

// withKeyList returns a CRC-valid copy of delta whose key-list count at
// offset at (21 adds, 22 removes) is 1, followed by one one-byte key.
func withKeyList(delta []byte, at int) []byte {
	return refence(append(append(append([]byte(nil), delta[:at]...), 1, 1, 0xaa), delta[at+1:]...))
}

// FuzzCascadeDecode drives both binary decoders (snapshot and delta)
// plus the delta applier with arbitrary bytes. Invariants: no input may
// panic; any snapshot that decodes must re-encode byte-identically
// (decode is strict and canonical — no mutant can decode to a filter
// whose verdicts differ from its own bytes); any delta that applies
// must yield the exact fenced target bytes.
func FuzzCascadeDecode(f *testing.F) {
	snap0, snap1, delta := fuzzArtifacts(f)
	f.Add(snap0)
	f.Add(snap1)
	f.Add(delta)
	f.Add(snap0[:headerSize])
	f.Add(delta[:21])
	// Semantically hostile but CRC-valid seeds: header fields, then the
	// version byte, the level-1 kind byte, ribbon geometry fields and the
	// trailing side section.
	for _, off := range []int{5, 33, 37, headerSize, len(snap0) - crcSize - 1} {
		mut := append([]byte(nil), snap0...)
		mut[off] ^= 0x40
		f.Add(refence(mut))
	}
	kindOff := headerSize + 2*ParentSize // level 1's kind byte (2 parents)
	for _, mut := range [][]int{{4, 1}, {4, 3}, {kindOff, 0}, {kindOff, 2}, {kindOff, 0xff}} {
		b := append([]byte(nil), snap0...)
		b[mut[0]] = byte(mut[1])
		f.Add(refence(b))
	}
	for _, off := range []int{kindOff + 1, kindOff + 3, kindOff + 7, len(snap0) - crcSize - 9} {
		b := append([]byte(nil), snap0...)
		b[off] ^= 0x40
		f.Add(refence(b))
	}
	for _, off := range []int{5, 9, 13, 17, 21, 22, len(delta) - crcSize - 1} {
		mut := append([]byte(nil), delta...)
		mut[off] ^= 0x40
		f.Add(refence(mut))
	}
	// A delta whose add or remove list is not empty, and a well-formed
	// version-1 snapshot.
	for _, at := range []int{21, 22} {
		f.Add(withKeyList(delta, at))
	}
	f.Add(craft(1, append(bloomHeader(7, 64), make([]byte, 8)...)))

	probe := AppendKey(nil, Parent{0x42}, []byte{0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if flt, err := Decode(data); err == nil {
			_ = flt.Revoked(probe)
			_ = flt.Covers(Parent{}, t0)
			_ = flt.FreshAt(t0)
			if !bytes.Equal(flt.Encode(), data) {
				t.Fatal("accepted snapshot does not re-encode canonically")
			}
		}
		if out, err := Apply(snap0, data); err == nil {
			// The target CRC fence passed, so these must be the
			// publisher's exact bytes.
			if !bytes.Equal(out, snap1) {
				t.Fatal("applied delta produced bytes that are not the fenced target")
			}
		}
	})
}

// FuzzManifest drives the CASM parser behind its signature. A fuzzer
// cannot forge ed25519, so mutating signed manifests only ever exercises
// the frame checks; here the input is taken as an unsigned body and the
// harness signs and CRC-frames it the way Manifest.Sign does, so the
// shard-table parser sees arbitrary authenticated bytes. Invariants: no
// input panics, framed or raw; whatever is accepted re-encodes through
// Manifest.Sign to the same bytes (the parser is strict and canonical,
// ed25519 signatures are deterministic), so no two byte strings verify to
// one manifest.
func FuzzManifest(f *testing.F) {
	priv := ManifestKeyFromSeed(7)
	pub := priv.Public().(ed25519.PublicKey)
	m := &Manifest{Epoch: 9, BuiltAt: t0, Shards: []ShardEntry{
		{Parent: Parent{1}, Epoch: 9, SnapshotCRC: 0xdeadbeef, SnapshotLen: 2342, DeltaCRC: 7, DeltaLen: 180},
		{Parent: Parent{2}, Epoch: 4, SnapshotCRC: 1, SnapshotLen: 64},
	}}
	body, err := m.body()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add(body[:manifestHdr])                                                          // says two shards, carries none
	f.Add(body[:len(body)-1])                                                          // a torn entry
	f.Add(append(body[:manifestHdr:manifestHdr], body[manifestHdr+manifestEntry:]...)) // one entry short of its count
	swapped := append([]byte(nil), body...)
	copy(swapped[manifestHdr:], body[manifestHdr+manifestEntry:])
	copy(swapped[manifestHdr+manifestEntry:], body[manifestHdr:manifestHdr+manifestEntry])
	f.Add(swapped) // descending parents
	for _, off := range []int{0, 4, 5, 9, 17, 20, manifestHdr, manifestHdr + 31, manifestHdr + manifestEntry} {
		mut := append([]byte(nil), body...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	empty, err := (&Manifest{Epoch: 1, BuiltAt: t0}).body()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = VerifyManifest(data, pub)
		msg := append([]byte(manifestDomain), data...)
		framed := append(append([]byte(nil), data...), ed25519.Sign(priv, msg)...)
		framed = binary.LittleEndian.AppendUint32(framed, CRC(framed))
		got, err := VerifyManifest(framed, pub)
		if err != nil {
			return
		}
		again, err := got.Sign(priv)
		if err != nil {
			t.Fatalf("an accepted manifest does not sign again: %v", err)
		}
		if !bytes.Equal(again, framed) {
			t.Fatal("an accepted manifest does not re-encode to the bytes it was read from")
		}
	})
}

// TestApplyRejectsHostileDeltas re-fences semantically hostile delta
// mutations (valid trailing CRC, broken content) and demands an error —
// never a panic, never silently wrong bytes.
func TestApplyRejectsHostileDeltas(t *testing.T) {
	w := newSynthWorld(12, 2, 1500, 0)
	pub := NewPublisher(PublishConfig{Parents: w.parents, VisitKnown: w.visit})
	snap0, _, err := pub.Advance(t0, w.keys[:50], nil)
	if err != nil {
		t.Fatal(err)
	}
	_, delta, err := pub.Advance(t0.AddDate(0, 0, 1), w.keys[50:70], nil)
	if err != nil {
		t.Fatal(err)
	}
	hostile := map[string]func([]byte) []byte{
		"wrong base epoch":   func(b []byte) []byte { b[5]++; return b },
		"wrong base crc":     func(b []byte) []byte { b[13]++; return b },
		"wrong target crc":   func(b []byte) []byte { b[17]++; return b },
		"bogus op":           func(b []byte) []byte { b[len(b)-crcSize-3] = 0x7f; return b },
		"truncated patch":    func(b []byte) []byte { return b[:len(b)-crcSize-4] },
		"flipped patch byte": func(b []byte) []byte { b[30] ^= 0xff; return b },
		"huge target len": func(b []byte) []byte {
			// Corrupt a patch-area byte to skew lengths downstream.
			b[len(b)-crcSize-1] ^= 0xff
			return b
		},
	}
	for name, mutate := range hostile {
		mut := refence(mutate(append([]byte(nil), delta...)))
		if out, err := Apply(snap0, mut); err == nil {
			t.Errorf("%s: applied, %d bytes out", name, len(out))
		}
	}
	// A key list where the wire holds an empty one: the delta is otherwise
	// the publisher's, so only the count check can refuse it, on the
	// direct path and on the catch-up path alike.
	for name, at := range map[string]int{"add count 1": 21, "remove count 1": 22} {
		mut := withKeyList(delta, at)
		if _, err := Apply(snap0, mut); err == nil || !strings.Contains(err.Error(), "count 1, want 0") {
			t.Errorf("%s: Apply err = %v", name, err)
		}
		if _, err := Compact(snap0, [][]byte{mut}); err == nil || !strings.Contains(err.Error(), "count 1, want 0") {
			t.Errorf("%s: Compact err = %v", name, err)
		}
	}
}

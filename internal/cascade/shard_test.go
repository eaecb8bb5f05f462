package cascade

import (
	"bytes"
	"crypto/ed25519"
	"strings"
	"testing"
	"time"
)

// shardWorld splits a synthetic population into per-parent shard builds.
func shardWorld(t *testing.T, seed int64, nParents, nPop, nRev int) (*synthWorld, []*Filter) {
	t.Helper()
	w := newSynthWorld(seed, nParents, nPop, nRev)
	shards := make([]*Filter, 0, nParents)
	for _, p := range w.parents {
		var revoked [][]byte
		for _, k := range w.revoked() {
			if bytes.Equal(k[:ParentSize], p[:]) {
				revoked = append(revoked, k)
			}
		}
		parent := p
		visit := func(fn func(key []byte) bool) {
			for _, k := range w.keys {
				if bytes.Equal(k[:ParentSize], parent[:]) && !fn(k) {
					return
				}
			}
		}
		f, err := Build(revoked, visit, []Parent{p}, BuildConfig{
			Epoch: 1, BuiltAt: t0, MaxAge: 72 * time.Hour,
		})
		if err != nil {
			t.Fatalf("shard %x: %v", p[:4], err)
		}
		shards = append(shards, f)
	}
	return w, shards
}

// installed returns the number of distinct shards s routes to, with
// their summed revoked keys and encoded bytes.
func installed(s *ShardSet) (shards, revoked, size int) {
	seen := map[*Filter]bool{}
	for _, f := range s.byParent {
		if !seen[f] {
			seen[f] = true
			shards++
			revoked += f.NumRevoked()
			size += f.SizeBytes()
		}
	}
	return shards, revoked, size
}

// TestShardSetRoutesVerdicts: a sharded install must reproduce the
// monolithic ground truth exactly, routing each key to its issuer's
// shard.
func TestShardSetRoutesVerdicts(t *testing.T) {
	asRibbon(t, func(t *testing.T) {
		w, shards := shardWorld(t, 11, 6, 20000, 500)
		s, err := NewShardSet(shards)
		if err != nil {
			t.Fatal(err)
		}
		if n, revoked, _ := installed(s); n != 6 || revoked != 500 {
			t.Fatalf("shards=%d revoked=%d", n, revoked)
		}
		for i, k := range w.keys {
			if got, want := s.Revoked(k), i < w.nRev; got != want {
				t.Fatalf("key %d: Revoked = %v, want %v", i, got, want)
			}
		}
		for _, p := range w.parents {
			if sh := s.Shard(p); sh == nil || !sh.Covers(p, t0.Add(-time.Hour)) || !sh.FreshAt(t0.Add(time.Hour)) {
				t.Fatalf("parent %x not covered/fresh", p[:4])
			}
		}
		var stranger Parent
		stranger[0] = 0xfe
		if s.Shard(stranger) != nil || s.Revoked(stranger[:]) {
			t.Error("uninstalled parent claimed")
		}
		// The browser resolves the issuer's shard once and asks that
		// filter directly; it must hear what the set's routed Revoked
		// says, for every key, and a nil shard must mean what the set
		// says of an uninstalled parent.
		for _, k := range append(w.keys, AppendKey(nil, stranger, []byte{7})) {
			var p Parent
			copy(p[:], k)
			sh := s.Shard(p)
			if got := sh != nil && sh.Revoked(k); got != s.Revoked(k) {
				t.Fatalf("key %x: shard says revoked=%v, set says %v", k[:8], got, s.Revoked(k))
			}
		}
		if s.Revoked([]byte{1, 2, 3}) {
			t.Error("short key claimed")
		}
	})
}

// TestShardSetRejectsOverlap: a parent owned by two shards would make
// verdicts probe-order dependent, so assembly must refuse it.
func TestShardSetRejectsOverlap(t *testing.T) {
	_, shards := shardWorld(t, 12, 3, 6000, 100)
	if _, err := NewShardSet(append(shards, shards[0])); err == nil || !strings.Contains(err.Error(), "two shards") {
		t.Fatalf("duplicate parent: err = %v", err)
	}
	if _, err := NewShardSet([]*Filter{nil}); err == nil {
		t.Error("nil shard accepted")
	}
}

// TestManifestSignVerifyRoundTrip pins the CASM format and its
// authentication: a signed manifest verifies and parses back exactly;
// any byte flip, a wrong key, or a reordered shard list is rejected.
func TestManifestSignVerifyRoundTrip(t *testing.T) {
	priv := ManifestKeyFromSeed(42)
	pub := priv.Public().(ed25519.PublicKey)
	var ps []Parent
	for i := 0; i < 3; i++ {
		var p Parent
		p[0] = byte(i + 1)
		ps = append(ps, p)
	}
	m := &Manifest{Epoch: 9, BuiltAt: t0, Shards: []ShardEntry{
		{Parent: ps[0], Epoch: 9, SnapshotCRC: 0xAAAA, SnapshotLen: 100},
		{Parent: ps[1], Epoch: 9, SnapshotCRC: 0xBBBB, SnapshotLen: 200, DeltaCRC: 0xCCCC, DeltaLen: 40},
		{Parent: ps[2], Epoch: 9, SnapshotCRC: 0xDDDD, SnapshotLen: 300},
	}}
	raw, err := m.Sign(priv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyManifest(raw, pub)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 9 || !got.BuiltAt.Equal(t0) || len(got.Shards) != 3 {
		t.Fatalf("parsed manifest drift: %+v", got)
	}
	for i := range m.Shards {
		if got.Shards[i] != m.Shards[i] {
			t.Fatalf("shard %d entry drift: %+v != %+v", i, got.Shards[i], m.Shards[i])
		}
	}

	for off := 0; off < len(raw); off += 13 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		if _, err := VerifyManifest(mut, pub); err == nil {
			t.Fatalf("accepted bit flip at %d", off)
		}
	}
	for cut := 0; cut < len(raw); cut += 31 {
		if _, err := VerifyManifest(raw[:cut], pub); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	if _, err := VerifyManifest(raw, ManifestKeyFromSeed(43).Public().(ed25519.PublicKey)); err == nil {
		t.Error("verified under the wrong key")
	}
	if _, err := VerifyManifest(raw, pub[:16]); err == nil {
		t.Error("accepted a malformed public key")
	}

	// Unsorted shard lists never sign in the first place.
	bad := &Manifest{Epoch: 1, BuiltAt: t0, Shards: []ShardEntry{
		{Parent: ps[1]}, {Parent: ps[0]},
	}}
	if _, err := bad.Sign(priv); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Errorf("unsorted manifest signed: err = %v", err)
	}
}

// TestInstallShards is the client install path: trusted-only selection,
// byte-exact pinning against the manifest, and refusal of swapped or
// missing artifacts.
func TestInstallShards(t *testing.T) {
	w, shards := shardWorld(t, 13, 4, 12000, 300)
	priv := ManifestKeyFromSeed(7)
	pub := priv.Public().(ed25519.PublicKey)

	order := append([]Parent(nil), w.parents...)
	SortParents(order)
	snaps := make(map[Parent][]byte)
	m := &Manifest{Epoch: 1, BuiltAt: t0}
	for _, p := range order {
		var f *Filter
		for _, s := range shards {
			if s.EnrolledParent(p) {
				f = s
				break
			}
		}
		enc := f.Encode()
		snaps[p] = enc
		m.Shards = append(m.Shards, ShardEntry{
			Parent: p, Epoch: 1, SnapshotCRC: CRC(enc), SnapshotLen: uint32(len(enc)),
		})
	}
	raw, err := m.Sign(priv)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := VerifyManifest(raw, pub)
	if err != nil {
		t.Fatal(err)
	}

	// Full trust: everything installs, verdicts match ground truth.
	all, err := InstallShards(verified, snaps, nil)
	if err != nil {
		t.Fatal(err)
	}
	allShards, allRevoked, allSize := installed(all)
	if allShards != 4 || allRevoked != 300 {
		t.Fatalf("shards=%d revoked=%d", allShards, allRevoked)
	}
	for i, k := range w.keys {
		if all.Revoked(k) != (i < w.nRev) {
			t.Fatalf("key %d verdict drift after install", i)
		}
	}

	// Partial trust: untrusted issuers' shards are skipped, and their
	// keys fall back to "not covered" rather than a wrong verdict.
	trustedParent := order[0]
	one, err := InstallShards(verified, snaps, func(p Parent) bool { return p == trustedParent })
	if err != nil {
		t.Fatal(err)
	}
	oneShards, _, oneSize := installed(one)
	if oneShards != 1 {
		t.Fatalf("trusted-only install kept %d shards", oneShards)
	}
	if oneSize >= allSize {
		t.Error("trusted-only install not smaller than full install")
	}
	for i, k := range w.keys {
		covered := bytes.Equal(k[:ParentSize], trustedParent[:])
		if got := one.Revoked(k); got != (covered && i < w.nRev) {
			t.Fatalf("key %d: partial-trust verdict %v", i, got)
		}
	}

	// Tampered artifact: CRC pin must refuse it even though it decodes.
	swapped := make(map[Parent][]byte, len(snaps))
	for p, b := range snaps {
		swapped[p] = b
	}
	swapped[order[0]], swapped[order[1]] = swapped[order[1]], swapped[order[0]]
	if _, err := InstallShards(verified, swapped, nil); err == nil || !strings.Contains(err.Error(), "match manifest") {
		t.Errorf("swapped shard installed: err = %v", err)
	}

	// Missing trusted shard is an error; trusting nothing is an error.
	missing := make(map[Parent][]byte, len(snaps))
	for p, b := range snaps {
		missing[p] = b
	}
	delete(missing, order[2])
	if _, err := InstallShards(verified, missing, nil); err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Errorf("missing shard tolerated: err = %v", err)
	}
	if _, err := InstallShards(verified, snaps, func(Parent) bool { return false }); err == nil {
		t.Error("empty trust set produced a shard set")
	}
}

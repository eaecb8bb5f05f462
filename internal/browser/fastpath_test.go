package browser

import (
	"bytes"
	"crypto/ed25519"
	"sync"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/cascade"
	"repro/internal/crl"
	"repro/internal/crlset"
	"repro/internal/x509x"
)

// coveredParents returns the CRLSet parents for every issuer in a
// leaf-first chain (everything that signs a checked element).
func coveredParents(chain []*x509x.Certificate) []crlset.Parent {
	var ps []crlset.Parent
	for i := 1; i < len(chain); i++ {
		ps = append(ps, crlset.Parent(x509x.SPKIHash(chain[i].RawSPKI)))
	}
	return ps
}

func TestCRLSetFastPathAnswersWithoutNetwork(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}

	set := crlset.NewSet(1)
	for _, p := range coveredParents(chain) {
		set.AddParent(p) // covered even with no revocations under it
	}
	set.Add(crlset.Parent(x509x.SPKIHash(chain[1].RawSPKI)), rec.Serial)

	client := w.client(Hardened())
	client.CRLSet = set

	v := mustEval(t, client, chain)
	if v.Outcome != OutcomeReject || !v.RevocationDetected {
		t.Errorf("CRLSet-revoked leaf: %+v", v)
	}
	if got := w.net.TotalStats().Requests; got != 0 {
		t.Errorf("fast path made %d network requests", got)
	}
	sawCRLSet := false
	for _, e := range v.Events {
		if e.Protocol == "crlset" && e.Result == "revoked" {
			sawCRLSet = true
		}
	}
	if !sawCRLSet {
		t.Errorf("no crlset event logged: %+v", v.Events)
	}

	// A good leaf under a covered issuer is also answered locally.
	good, _ := w.leaf(false)
	v = mustEval(t, client, good)
	if v.Outcome != OutcomeAccept {
		t.Errorf("good leaf under covered parent: %+v", v)
	}
	if got := w.net.TotalStats().Requests; got != 0 {
		t.Errorf("good fast path made %d network requests", got)
	}
	if v.FastPath.CRLSetHits == 0 {
		t.Errorf("no CRLSet hits attributed: %+v", v.FastPath)
	}
}

func TestCRLSetMissFallsThroughToNetwork(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	client := w.client(Hardened())
	client.CRLSet = crlset.NewSet(1) // covers nothing

	v := mustEval(t, client, chain)
	if v.Outcome != OutcomeAccept {
		t.Errorf("verdict: %+v", v)
	}
	if w.net.TotalStats().Requests == 0 {
		t.Error("uncovered issuer should have hit the network")
	}
	if v.FastPath.CRLSetMisses == 0 {
		t.Errorf("no CRLSet misses attributed: %+v", v.FastPath)
	}
}

func TestBlockedSPKIRejects(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	set := crlset.NewSet(1)
	set.BlockedSPKIs = append(set.BlockedSPKIs, crlset.Parent(x509x.SPKIHash(chain[0].RawSPKI)))
	client := w.client(Hardened())
	client.CRLSet = set

	v := mustEval(t, client, chain)
	if v.Outcome != OutcomeReject || !v.RevocationDetected {
		t.Errorf("blocked SPKI not rejected: %+v", v)
	}
	if v.FastPath.BlockedSPKI != 1 {
		t.Errorf("BlockedSPKI = %d", v.FastPath.BlockedSPKI)
	}
}

func TestBloomFastPath(t *testing.T) {
	w := newWorld(t, ocspOnly)
	revokedChain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	goodChain, _ := w.leaf(false)

	// Filter holds the one revoked (parent, serial) key.
	filter := bloom.NewOptimal(1024, 16)
	parent := crlset.Parent(x509x.SPKIHash(revokedChain[1].RawSPKI))
	filter.Add(BloomKey(nil, parent, rec.Serial.Bytes()))

	client := w.client(Hardened())
	client.Bloom = filter

	// Good leaf: negative is definitive, no network fetch for the leaf.
	v := mustEval(t, client, goodChain)
	if v.Outcome != OutcomeAccept {
		t.Errorf("good leaf: %+v", v)
	}
	if v.FastPath.BloomNegatives == 0 {
		t.Errorf("no Bloom negatives attributed: %+v", v.FastPath)
	}

	// Revoked leaf: positive falls through to the online check, which
	// must still find the revocation.
	w.net.ResetStats()
	v = mustEval(t, client, revokedChain)
	if v.Outcome != OutcomeReject || !v.RevocationDetected {
		t.Errorf("revoked leaf through Bloom positive: %+v", v)
	}
	if v.FastPath.BloomPositives == 0 {
		t.Errorf("no Bloom positives attributed: %+v", v.FastPath)
	}
	if w.net.TotalStats().Requests == 0 {
		t.Error("Bloom positive should have triggered a network check")
	}
}

// knownKeys returns the known population of a test cascade, each key
// once: the revoked keys, every element the chains would have checked
// (everything below the root), and n synthetic good serials under each
// padded issuer. A cascade is exact only for keys it was built over:
// probing a good certificate that was left out is a probe outside the
// filter's universe, and with random CA keys a level-1 false positive
// there reads as "revoked" about one run in fifty. Every chain a test
// evaluates therefore has to be passed here.
func knownKeys(chains [][]*x509x.Certificate, revoked [][]byte, padded []cascade.Parent, n int) [][]byte {
	var keys [][]byte
	seen := make(map[string]bool)
	add := func(key []byte) {
		if !seen[string(key)] {
			seen[string(key)] = true
			keys = append(keys, key)
		}
	}
	for _, k := range revoked {
		add(k)
	}
	for _, chain := range chains {
		for e := 0; e+1 < len(chain); e++ {
			p := cascade.Parent(x509x.SPKIHash(chain[e+1].RawSPKI))
			add(cascade.AppendKey(nil, p, chain[e].SerialNumber.Bytes()))
		}
	}
	for _, p := range padded {
		for i := 0; i < n; i++ {
			add(cascade.AppendKey(nil, p, []byte{0x55, byte(i >> 8), byte(i)}))
		}
	}
	return keys
}

// visitUnder is a cascade visitKnown over the keys issued by parent.
func visitUnder(keys [][]byte, parent cascade.Parent) func(fn func(key []byte) bool) {
	return func(fn func(key []byte) bool) {
		for _, k := range keys {
			if bytes.HasPrefix(k, parent[:]) && !fn(k) {
				return
			}
		}
	}
}

// buildChainCascade builds one cascade over the chains a test will
// present (which share their issuers): every checked element is known,
// the given serials under the leaf issuer are revoked, and a small
// synthetic population pads the leaf issuer.
func buildChainCascade(t testing.TB, chains [][]*x509x.Certificate, revokedSerials [][]byte, cfg cascade.BuildConfig) *cascade.Filter {
	t.Helper()
	var parents []cascade.Parent
	for _, p := range coveredParents(chains[0]) {
		parents = append(parents, cascade.Parent(p))
	}
	issuer := parents[0]
	var revoked [][]byte
	for _, s := range revokedSerials {
		revoked = append(revoked, cascade.AppendKey(nil, issuer, s))
	}
	known := knownKeys(chains, revoked, []cascade.Parent{issuer}, 500)
	visit := func(fn func(key []byte) bool) {
		for _, k := range known {
			if !fn(k) {
				return
			}
		}
	}
	f, err := cascade.Build(revoked, visit, parents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCascadeFastPathAuthoritative: a fresh cascade answers both the
// revoked and the good leaf offline, exactly, before CRLSet/Bloom.
func TestCascadeFastPathAuthoritative(t *testing.T) {
	w := newWorld(t, ocspOnly)
	revokedChain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	goodChain, _ := w.leaf(false)

	client := w.client(Hardened())
	client.Cascade = buildChainCascade(t, [][]*x509x.Certificate{revokedChain, goodChain}, [][]byte{rec.Serial.Bytes()}, cascade.BuildConfig{
		Epoch: 1, BuiltAt: w.clock.Now(), MaxAge: 48 * time.Hour,
	})

	v := mustEval(t, client, revokedChain)
	if v.Outcome != OutcomeReject || !v.RevocationDetected {
		t.Errorf("cascade-revoked leaf: %+v", v)
	}
	if v.FastPath.CascadeHits == 0 {
		t.Errorf("no cascade hits attributed: %+v", v.FastPath)
	}
	v = mustEval(t, client, goodChain)
	if v.Outcome != OutcomeAccept {
		t.Errorf("good leaf: %+v", v)
	}
	if got := w.net.TotalStats().Requests; got != 0 {
		t.Errorf("authoritative cascade made %d network requests", got)
	}
}

// TestCascadeStaleFallsBack: once the snapshot outlives its max-age the
// cascade is skipped and checking goes to the network.
func TestCascadeStaleFallsBack(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	client := w.client(Hardened())
	client.Cascade = buildChainCascade(t, [][]*x509x.Certificate{chain}, nil, cascade.BuildConfig{
		Epoch: 1, BuiltAt: w.clock.Now().Add(-72 * time.Hour), MaxAge: 24 * time.Hour,
	})

	v := mustEval(t, client, chain)
	if v.Outcome != OutcomeAccept {
		t.Errorf("verdict: %+v", v)
	}
	if v.FastPath.CascadeStale == 0 || v.FastPath.CascadeHits != 0 {
		t.Errorf("stale cascade consulted: %+v", v.FastPath)
	}
	if w.net.TotalStats().Requests == 0 {
		t.Error("stale cascade should have fallen back to the network")
	}
}

// TestCascadeCutoffExcludesNewCerts: a cert issued after the snapshot
// cutoff was never streamed through the build — the cascade must not
// answer for it.
func TestCascadeCutoffExcludesNewCerts(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false) // NotBefore is one month before now
	client := w.client(Hardened())
	client.Cascade = buildChainCascade(t, [][]*x509x.Certificate{chain}, nil, cascade.BuildConfig{
		Epoch: 1, BuiltAt: w.clock.Now(), Cutoff: w.clock.Now().AddDate(0, -2, 0),
	})

	v := mustEval(t, client, chain)
	// The older intermediate may still hit; the leaf must miss.
	if v.FastPath.CascadeMisses == 0 {
		t.Errorf("post-cutoff cert answered by cascade: %+v", v.FastPath)
	}
	for _, e := range v.Events {
		if e.Protocol == "cascade" && e.Pos == PosLeaf {
			t.Errorf("cascade answered the post-cutoff leaf: %+v", e)
		}
	}
	if w.net.TotalStats().Requests == 0 {
		t.Error("uncovered cert should have hit the network")
	}
}

// TestCascadeKeyMatchesBloomKey pins the shared key layout: the cascade
// and the Bloom filter must agree byte for byte, including serial
// canonicalization.
func TestCascadeKeyMatchesBloomKey(t *testing.T) {
	var p crlset.Parent
	p[5] = 0xaa
	for _, serial := range [][]byte{nil, {0x00}, {0x00, 0x17}, {0x80, 0x01}} {
		a := BloomKey(nil, p, serial)
		b := cascade.AppendKey(nil, cascade.Parent(p), serial)
		if !bytes.Equal(a, b) {
			t.Errorf("key drift for serial %x: bloom %x, cascade %x", serial, a, b)
		}
	}
}

// buildShardInstall builds one cascade shard per issuer of the
// chains a test will present (which share their issuers), each over the
// chain elements that issuer signed plus a synthetic population, pins
// them all under a signed manifest, and installs only the shards the
// trust predicate accepts — the full client-side path for a sharded
// cascade (cascade.InstallShards).
func buildShardInstall(t testing.TB, chains [][]*x509x.Certificate, revokedSerials [][]byte, now time.Time, trusted func(cascade.Parent) bool) *cascade.ShardSet {
	t.Helper()
	parents := coveredParents(chains[0])
	order := make([]cascade.Parent, len(parents))
	for i, p := range parents {
		order[i] = cascade.Parent(p)
	}
	cascade.SortParents(order)
	var revokedAll [][]byte
	for _, s := range revokedSerials { // the leaf's issuer owns the revocations
		revokedAll = append(revokedAll, cascade.AppendKey(nil, cascade.Parent(parents[0]), s))
	}
	known := knownKeys(chains, revokedAll, order, 400)
	snaps := make(map[cascade.Parent][]byte)
	m := &cascade.Manifest{Epoch: 1, BuiltAt: now}
	for _, p := range order {
		var revoked [][]byte
		if p == cascade.Parent(parents[0]) {
			revoked = revokedAll
		}
		visit := visitUnder(known, p)
		f, err := cascade.Build(revoked, visit, []cascade.Parent{p}, cascade.BuildConfig{
			Epoch: 1, BuiltAt: now, MaxAge: 48 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		enc := f.Encode()
		snaps[p] = enc
		m.Shards = append(m.Shards, cascade.ShardEntry{
			Parent: p, Epoch: 1, SnapshotCRC: cascade.CRC(enc), SnapshotLen: uint32(len(enc)),
		})
	}
	priv := cascade.ManifestKeyFromSeed(99)
	raw, err := m.Sign(priv)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := cascade.VerifyManifest(raw, priv.Public().(ed25519.PublicKey))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cascade.InstallShards(verified, snaps, trusted)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCascadeShardsFastPath: a full sharded install answers both leaves
// offline through the issuer's own shard, exactly like the monolithic
// cascade.
func TestCascadeShardsFastPath(t *testing.T) {
	w := newWorld(t, ocspOnly)
	revokedChain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	goodChain, _ := w.leaf(false)

	client := w.client(Hardened())
	client.CascadeShards = buildShardInstall(t, [][]*x509x.Certificate{revokedChain, goodChain}, [][]byte{rec.Serial.Bytes()}, w.clock.Now(), nil)

	v := mustEval(t, client, revokedChain)
	if v.Outcome != OutcomeReject || !v.RevocationDetected {
		t.Errorf("shard-revoked leaf: %+v", v)
	}
	if v.FastPath.CascadeHits == 0 {
		t.Errorf("no cascade hits attributed: %+v", v.FastPath)
	}
	v = mustEval(t, client, goodChain)
	if v.Outcome != OutcomeAccept {
		t.Errorf("good leaf: %+v", v)
	}
	if got := w.net.TotalStats().Requests; got != 0 {
		t.Errorf("full shard install made %d network requests", got)
	}
}

// TestCascadeShardsTrustFiltering: with only the leaf issuer's shard
// installed, the leaf is answered locally while the intermediate (whose
// issuer the client did not trust) falls back to the network.
func TestCascadeShardsTrustFiltering(t *testing.T) {
	w := newWorld(t, ocspOnly)
	chain, _ := w.leaf(false)
	leafIssuer := cascade.Parent(coveredParents(chain)[0])
	client := w.client(Hardened())
	client.CascadeShards = buildShardInstall(t, [][]*x509x.Certificate{chain}, nil, w.clock.Now(),
		func(p cascade.Parent) bool { return p == leafIssuer })
	if client.CascadeShards.NumShards() != 1 {
		t.Fatalf("installed %d shards, want 1", client.CascadeShards.NumShards())
	}

	v := mustEval(t, client, chain)
	if v.Outcome != OutcomeAccept {
		t.Errorf("verdict: %+v", v)
	}
	if v.FastPath.CascadeHits == 0 || v.FastPath.CascadeMisses == 0 {
		t.Errorf("expected one shard hit and one miss: %+v", v.FastPath)
	}
	for _, e := range v.Events {
		if e.Protocol == "cascade-shard" && e.Pos != PosLeaf {
			t.Errorf("uninstalled issuer answered locally: %+v", e)
		}
	}
	if w.net.TotalStats().Requests == 0 {
		t.Error("untrusted issuer's element should have hit the network")
	}
}

// TestFirstVerdictRace: eight goroutines make the first verdict on one
// freshly parsed chain together, through each cascade install (run under
// -race by make race-hot). Each one fills or reads the certificates'
// identity and the leaf's digest memo, and all must agree with the
// verdict of a chain whose memos were filled beforehand.
func TestFirstVerdictRace(t *testing.T) {
	w := newWorld(t, ocspOnly)
	revokedChain, rec := w.leaf(false)
	if err := w.inter.Revoke(rec.Serial, w.clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	goodChain, _ := w.leaf(false)
	chains := [][]*x509x.Certificate{revokedChain, goodChain}
	revoked := [][]byte{rec.Serial.Bytes()}
	installs := map[string]func(c *Client){
		"cascade": func(c *Client) {
			c.Cascade = buildChainCascade(t, chains, revoked, cascade.BuildConfig{Epoch: 1, BuiltAt: w.clock.Now()})
		},
		"cascade-shards": func(c *Client) {
			c.CascadeShards = buildShardInstall(t, chains, revoked, w.clock.Now(), nil)
		},
	}
	for name, install := range installs {
		client := w.client(Hardened())
		install(client)
		for ci, chain := range chains {
			want := mustEval(t, client, chain).RevocationDetected
			if want != (ci == 0) {
				t.Fatalf("%s: chain %d revoked %v", name, ci, want)
			}
			fresh := make([]*x509x.Certificate, len(chain))
			for i, c := range chain {
				var err error
				if fresh[i], err = x509x.Parse(c.Raw); err != nil {
					t.Fatal(err)
				}
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var v Verdict
					<-start
					if err := client.EvaluateInto(&v, fresh, nil); err != nil {
						t.Error(err)
						return
					}
					if v.RevocationDetected != want || v.FastPath.CascadeHits == 0 {
						t.Errorf("%s: racing first verdict on chain %d: revoked %v (want %v), fast path %+v", name, ci, v.RevocationDetected, want, v.FastPath)
					}
				}()
			}
			close(start)
			wg.Wait()
		}
	}
	if got := w.net.TotalStats().Requests; got != 0 {
		t.Errorf("cascade verdicts made %d network requests", got)
	}
}

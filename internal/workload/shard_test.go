package workload

import (
	"testing"

	"repro/internal/cascade"
)

// TestRibbonCascadeDifferentialOracle is the zero-FP battery run over the
// ribbon chain through the feed's own publish path: the same world, the
// same ground-truth audit, both client states (fresh final snapshot and
// day-zero snapshot advanced through every delta) — and the snapshot must
// stay compact. The Bloom chain it was once measured against spent 21.6
// bits per listed revocation on this world; 0.70x of that is the 15-bit
// ceiling checked here.
func TestRibbonCascadeDifferentialOracle(t *testing.T) {
	w := testWorld(t)
	feed, err := w.CascadeFeed()
	if err != nil {
		t.Fatal(err)
	}
	series, err := feed.PublishKind(cascade.KindRibbon)
	if err != nil {
		t.Fatal(err)
	}
	finalDay := feed.Days[len(feed.Days)-1]

	flt, err := cascade.Decode(series.Final)
	if err != nil {
		t.Fatal(err)
	}
	if flt.NumLevels() < 2 {
		t.Fatalf("ribbon chain published %d levels; population winnowing never engaged", flt.NumLevels())
	}

	patched := series.First
	for i := 1; i < len(series.Deltas); i++ {
		if patched, err = cascade.Apply(patched, series.Deltas[i]); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	if cascade.Digest(patched) != cascade.Digest(series.Final) {
		t.Fatal("ribbon snapshot+deltas does not reproduce the fresh snapshot")
	}

	for _, state := range []struct {
		name string
		data []byte
	}{
		{"fresh-snapshot", series.Final},
		{"snapshot-plus-deltas", patched},
	} {
		t.Run(state.name, func(t *testing.T) {
			a, err := w.AuditCascade(state.data, finalDay)
			if err != nil {
				t.Fatal(err)
			}
			if a.CertsChecked < 1000 || a.ListedRevocations == 0 {
				t.Fatalf("audit too small to prove anything: %+v", a)
			}
			if !a.Exact() {
				t.Fatalf("ribbon cascade not exact: %+v", a)
			}
			if bits := 8 * float64(len(state.data)) / float64(a.ListedRevocations); bits > 15 {
				t.Errorf("ribbon snapshot %d B is %.1f bits per listed revocation, not ≤ 15", len(state.data), bits)
			}
			t.Logf("%s: %d certs, %d listed revocations, %d B", state.name, a.CertsChecked, a.ListedRevocations, len(state.data))
		})
	}
}

// TestShardedCascadeOracle publishes the per-issuer sharded chain,
// installs it through the signed-manifest client path, and runs the
// ground-truth audit over the shard set — then shows the bandwidth win:
// a client trusting a strict subset of issuers downloads strictly less.
func TestShardedCascadeOracle(t *testing.T) {
	w := testWorld(t)
	feed, err := w.CascadeFeed()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := feed.PublishSharded(cascade.KindRibbon)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Parents) < 2 {
		t.Fatalf("world has %d issuers; sharding proves nothing", len(sharded.Parents))
	}
	finalDay := feed.Days[len(feed.Days)-1]

	// Every day's manifest verifies under the published key.
	for i, raw := range sharded.Manifests {
		m, err := cascade.VerifyManifest(raw, sharded.PublicKey)
		if err != nil {
			t.Fatalf("manifest day %d: %v", i, err)
		}
		if m.Epoch != uint32(i+1) || len(m.Shards) != len(sharded.Parents) {
			t.Fatalf("manifest day %d pins %d shards at epoch %d", i, len(m.Shards), m.Epoch)
		}
	}

	// Each shard's delta chain reconstructs its final snapshot.
	for p, c := range sharded.Shards {
		cur := c.First
		for i := 1; i < len(c.Deltas); i++ {
			if cur, err = cascade.Apply(cur, c.Deltas[i]); err != nil {
				t.Fatalf("shard %x delta %d: %v", p[:4], i, err)
			}
		}
		if cascade.Digest(cur) != cascade.Digest(c.Final) {
			t.Fatalf("shard %x chain does not reproduce its final snapshot", p[:4])
		}
	}

	// Full-trust install: the shard set must match ground truth exactly.
	all, err := sharded.Install(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sharded.Parents {
		if all.Shard(p) == nil {
			t.Fatalf("full-trust install has no shard for parent %x", p[:4])
		}
	}
	a, err := w.AuditCascadeShards(all, finalDay)
	if err != nil {
		t.Fatal(err)
	}
	if a.CertsChecked < 1000 || a.ListedRevocations == 0 {
		t.Fatalf("audit too small to prove anything: %+v", a)
	}
	if !a.Exact() {
		t.Fatalf("sharded cascade not exact: %+v", a)
	}

	// Partial trust: one issuer's shard installs alone, audits exactly
	// over its own certificates, and costs strictly fewer bytes.
	// The issuer is picked by profile, not by position: CA keys are random,
	// so Parents[0] is a different issuer in every process, and Apple-WWDR's
	// certificates are in no scan, so its shard audits zero certificates.
	var trustedParent cascade.Parent
	for _, a := range w.Authorities {
		if a.Profile.WebCA() {
			trustedParent = cascade.Parent(a.Parent)
			break
		}
	}
	trust := func(p cascade.Parent) bool { return p == trustedParent }
	one, err := sharded.Install(trust)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sharded.Parents {
		if installed := one.Shard(p) != nil; installed != (p == trustedParent) {
			t.Fatalf("trusted-only install: parent %x installed = %v", p[:4], installed)
		}
	}
	pa, err := w.AuditCascadeShards(one, finalDay)
	if err != nil {
		t.Fatal(err)
	}
	if pa.CertsChecked == 0 || !pa.Exact() {
		t.Fatalf("partial-trust audit: %+v", pa)
	}
	if pa.CertsChecked >= a.CertsChecked {
		t.Error("partial trust audited no fewer certificates than full trust")
	}
	fullBytes, _ := sharded.ClientBytes(nil)
	oneBytes, _ := sharded.ClientBytes(trust)
	if oneBytes >= fullBytes {
		t.Errorf("subset client bytes %d not below full %d", oneBytes, fullBytes)
	}
	t.Logf("sharded: %d shards, full client %d B, single-issuer client %d B over %d days",
		len(sharded.Parents), fullBytes, oneBytes, len(feed.Days))
}

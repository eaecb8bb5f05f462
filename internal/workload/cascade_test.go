package workload

import (
	"testing"

	"repro/internal/cascade"
	"repro/internal/corpus"
	"repro/internal/revdb"
)

// TestCascadeDifferentialOracle is the zero-false-positive battery: it
// publishes the full daily cascade chain for the shared seed-scale world
// and then compares the cascade's verdict for EVERY certificate in the
// corpus — and every revocation in the database — against the revocation
// database's ground truth, for both client states (a freshly downloaded
// final snapshot, and a day-zero snapshot advanced through every daily
// delta). Ground truth for "revoked" is "the revocation is still listed
// on the final crawl day": entries the CAs pruned after expiry are
// removed from the cascade the same way they vanish from CRLs. The
// test's own derivation of that truth and World.AuditCascade must count
// the same certificates, revocations and errors.
func TestCascadeDifferentialOracle(t *testing.T) {
	w := testWorld(t)
	feed, series, err := w.BuildCascadeSeries()
	if err != nil {
		t.Fatal(err)
	}
	if feed.Revocations == 0 {
		t.Fatal("world produced no revocations to enroll")
	}
	finalDay := feed.Days[len(feed.Days)-1]

	// Client state B: day-zero snapshot advanced delta by delta.
	patched := series.First
	for i := 1; i < len(series.Deltas); i++ {
		patched, err = cascade.Apply(patched, series.Deltas[i])
		if err != nil {
			t.Fatalf("delta %d (%s): %v", i, feed.Days[i].Format("2006-01-02"), err)
		}
	}
	if cascade.Digest(patched) != cascade.Digest(series.Final) {
		t.Fatalf("snapshot+deltas digest %016x != fresh snapshot digest %016x",
			cascade.Digest(patched), cascade.Digest(series.Final))
	}

	byURL, byName := w.parentMaps()

	// Independent ground-truth derivation: a cert is revoked when its
	// serial is listed under any of its CA's CRL shards (OCSP-only certs
	// carry no CRL pointer, but the CA's CRLs still list them) and the
	// listing survives to the final crawl day.
	caShards := make(map[string][]string, len(w.Authorities))
	for _, a := range w.Authorities {
		for shard := 0; shard < a.Profile.CRLShards; shard++ {
			caShards[a.Profile.Name] = append(caShards[a.Profile.Name], a.CA.CRLURL(shard))
		}
	}
	revokedTruth := func(ct *corpus.Cert) (revdb.Meta, bool) {
		for _, url := range caShards[ct.CAName()] {
			if m, found := w.RevDB.LookupMeta(url, ct.Serial()); found {
				return m, !m.LastSeen.Before(finalDay)
			}
		}
		return revdb.Meta{}, false
	}
	for _, state := range []struct {
		name string
		data []byte
	}{
		{"fresh-snapshot", series.Final},
		{"snapshot-plus-deltas", patched},
	} {
		t.Run(state.name, func(t *testing.T) {
			flt, err := cascade.Decode(state.data)
			if err != nil {
				t.Fatal(err)
			}
			if flt.NumLevels() < 2 {
				t.Fatalf("cascade has %d levels; population winnowing never engaged", flt.NumLevels())
			}
			if !flt.FreshAt(finalDay) {
				t.Fatal("final snapshot not fresh on its own build day")
			}

			// Every corpus certificate: verdict must equal ground truth.
			var buf [96]byte
			checked, truthRevoked, fp, fn := 0, 0, 0, 0
			w.Corpus.Visit(func(ct *corpus.Cert) bool {
				p, ok := byName[ct.CAName()]
				if !ok {
					return true
				}
				verdict := flt.Revoked(cascade.AppendKey(buf[:0], p, ct.Serial()))
				m, truth := revokedTruth(ct)
				checked++
				if truth {
					truthRevoked++
				}
				switch {
				case verdict && !truth:
					if fp < 5 {
						t.Errorf("false positive: %s serial %x", ct.CAName(), ct.Serial())
					}
					fp++
				case !verdict && truth:
					if fn < 5 {
						t.Errorf("false negative: %s serial %x revoked %s", ct.CAName(), ct.Serial(), m.RevokedAt)
					}
					fn++
				}
				return true
			})
			// Every still-listed revocation — including certificates never
			// advertised, which only the CRLs know — must probe revoked.
			missed, listed := 0, 0
			w.RevDB.VisitEntries(func(e *revdb.Entry) bool {
				if e.LastSeen.Before(finalDay) {
					return true // pruned from its CRL after expiry
				}
				listed++
				if !flt.Revoked(cascade.AppendKey(buf[:0], byURL[e.CRLURL], e.Serial.Bytes())) {
					missed++
				}
				return true
			})

			a, err := w.AuditCascade(state.data, finalDay)
			if err != nil {
				t.Fatal(err)
			}
			if want := (CascadeAudit{
				CertsChecked: checked, RevokedInCorpus: truthRevoked,
				ListedRevocations: listed, Missed: missed,
				FalsePositives: fp, FalseNegatives: fn,
			}); a != want {
				t.Fatalf("AuditCascade reports %+v, the independent derivation %+v", a, want)
			}

			if checked < 1000 {
				t.Fatalf("only %d corpus certificates checked; world too small to prove anything", checked)
			}
			if truthRevoked == 0 {
				t.Fatal("no revoked certificate ever appeared in the corpus")
			}
			if fp != 0 || fn != 0 {
				t.Fatalf("%d false positives, %d false negatives over %d certificates", fp, fn, checked)
			}
			if listed == 0 {
				t.Fatal("no revocations listed on the final crawl day")
			}
			if missed != 0 {
				t.Fatalf("cascade missed %d of %d listed revocations", missed, listed)
			}
			t.Logf("%s: %d certs checked, %d revoked in corpus, %d listed revocations covered, %d levels, %d bytes",
				state.name, checked, truthRevoked, listed, flt.NumLevels(), len(state.data))
		})
	}
}

// TestCascadeSeriesCompaction folds the whole delta chain into one
// compacted delta and verifies it lands a day-zero client on the exact
// final bytes — the catch-up path for clients that missed many days.
func TestCascadeSeriesCompaction(t *testing.T) {
	w := testWorld(t)
	_, series, err := w.BuildCascadeSeries()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := cascade.Compact(series.First, series.Deltas[1:])
	if err != nil {
		t.Fatal(err)
	}
	out, err := cascade.Apply(series.First, merged)
	if err != nil {
		t.Fatal(err)
	}
	if cascade.Digest(out) != cascade.Digest(series.Final) {
		t.Fatal("compacted catch-up delta does not reproduce the final snapshot")
	}
	var chain int
	for _, d := range series.Deltas {
		chain += len(d)
	}
	if len(merged) >= chain {
		t.Errorf("compacted delta (%d B) not smaller than the %d B chain", len(merged), chain)
	}
}

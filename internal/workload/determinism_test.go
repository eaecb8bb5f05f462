package workload

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"testing"

	"repro/internal/corpus"
	"repro/internal/revdb"
)

// digestWorld fingerprints everything downstream analyses read: the
// certificate population, the host layout, the revocation database, the
// crawl archive, and the CRLSet timeline. Two worlds with equal digests
// produce identical experiment results.
func digestWorld(w *World) string {
	h := sha256.New()
	fmt.Fprintf(h, "certs %d\n", len(w.Certs))
	for _, cs := range w.Certs {
		fmt.Fprintf(h, "%s %x %s %d %d %t %t %t %t %d %d",
			cs.Rec.CAName, cs.Rec.Serial.Bytes(), cs.Rec.CommonName,
			cs.Rec.NotBefore.UnixNano(), cs.Rec.NotAfter.UnixNano(),
			cs.Rec.EV, cs.Rec.HasCRLDP, cs.Rec.HasOCSP,
			cs.Revoked, cs.RevokedAt.UnixNano(), cs.Reason)
		fmt.Fprintf(h, " %t %t %t %d\n", cs.Advertised, cs.Popular, cs.PopularTop, len(cs.Hosts))
	}
	fmt.Fprintf(h, "hosts %d\n", len(w.Hosts))
	digestCorpus(h, w)
	digestRevDB(h, w)
	digestArchive(h, w)
	digestTimeline(h, w)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func digestCorpus(h hash.Hash, w *World) {
	fmt.Fprintf(h, "corpus %d %d\n", w.Corpus.NumScans(), w.Corpus.Size())
	w.Corpus.Visit(func(ct *corpus.Cert) bool {
		fmt.Fprintf(h, "%d %d ", ct.BirthScan(), ct.DeathScan())
		return true
	})
	io.WriteString(h, "\n")
}

func digestRevDB(h hash.Hash, w *World) {
	fmt.Fprintf(h, "revdb %d %016x\n", w.RevDB.Size(), revdb.XORDigest(w.RevDB))
}

func digestArchive(h hash.Hash, w *World) {
	snaps := w.Archive.Snapshots()
	fmt.Fprintf(h, "archive %d\n", len(snaps))
	for _, s := range snaps {
		// Snapshot.Bytes is excluded: ECDSA signature encoding lengths
		// vary with the crypto/rand nonce, so raw DER sizes differ
		// between runs (serial or parallel alike) and no analysis
		// consumes them.
		fmt.Fprintf(h, "%d %d %d\n", s.Day.UnixNano(), len(s.CRLs), len(s.Failures))
	}
}

func digestTimeline(h hash.Hash, w *World) {
	days := w.Timeline.Days()
	counts := w.Timeline.EntryCounts()
	fmt.Fprintf(h, "timeline %d\n", len(days))
	for i, d := range days {
		fmt.Fprintf(h, "%d %d\n", d.UnixNano(), counts[i])
	}
}

// TestParallelDeterminism is the tentpole's contract: with a fixed seed,
// the world build is byte-for-byte identical whether it runs serially or
// fanned out across workers, and repeated parallel builds agree.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three worlds")
	}
	build := func(parallelism int) *World {
		t.Helper()
		w, err := NewWorld(Config{Scale: 0.0005, Seed: 7, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	serial := digestWorld(build(1))
	parallelA := digestWorld(build(8))
	parallelB := digestWorld(build(8))
	if parallelA != parallelB {
		t.Errorf("two parallel builds with the same seed diverged:\n%s\n%s", parallelA, parallelB)
	}
	if serial != parallelA {
		t.Errorf("parallel build diverged from serial:\nserial   %s\nparallel %s", serial, parallelA)
	}
}

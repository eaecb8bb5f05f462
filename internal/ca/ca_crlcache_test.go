package ca

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"
	"time"

	"repro/internal/crl"
)

// The incremental CRL data path — entry cache plus append-only encode
// cache — must be invisible: every daily re-sign produces a CRL with
// exactly the entries a from-scratch build would contain, correctly
// signed, across revocation cycles, cache resets, and expiry windows.

func crlAt(t *testing.T, authority *CA, shard int) *crl.CRL {
	t.Helper()
	raw, err := authority.CRLBytes(shard)
	if err != nil {
		t.Fatal(err)
	}
	c, err := crl.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifySignature(authority.Certificate()); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIncrementalResignGrowsCRL(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.NumCRLShards = 1 })
	var serials []*big.Int
	// Interleave daily re-signs with new revocations: each CRLBytes call
	// must reflect every revocation made so far, in revocation order.
	for day := 0; day < 8; day++ {
		for j := 0; j < 3; j++ {
			rec := authority.IssueRecord(issueOpts(clock, fmt.Sprintf("d%d-%d", day, j)))
			if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonKeyCompromise); err != nil {
				t.Fatal(err)
			}
			serials = append(serials, rec.Serial)
		}
		c := crlAt(t, authority, 0)
		if len(c.Entries) != len(serials) {
			t.Fatalf("day %d: CRL has %d entries, want %d", day, len(c.Entries), len(serials))
		}
		for i, s := range serials {
			if !bytes.Equal(c.Entries[i].Serial, s.Bytes()) {
				t.Fatalf("day %d entry %d: serial %x, want %x", day, i, c.Entries[i].Serial, s.Bytes())
			}
		}
		clock.Advance(24 * time.Hour)
	}
}

// An unchanged shard re-signed later must yield the same entry bytes; the
// encode cache must not detach from the entry cache across signings.
func TestResignUnchangedShardStable(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.NumCRLShards = 1 })
	rec := authority.IssueRecord(issueOpts(clock, "stable"))
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	first := crlAt(t, authority, 0)
	for i := 0; i < 5; i++ {
		clock.Advance(24 * time.Hour)
		c := crlAt(t, authority, 0)
		if len(c.Entries) != 1 || !bytes.Equal(c.Entries[0].Serial, first.Entries[0].Serial) {
			t.Fatalf("re-sign %d changed entries: %+v", i, c.Entries)
		}
		if c.Number.Cmp(first.Number) <= 0 {
			t.Fatalf("re-sign %d did not advance CRL number", i)
		}
	}
}

// A lapsed window (expiry under DropExpiredFromCRL) forces a full entry
// rebuild; the encode cache must reset with it instead of serving stale
// concatenated entries.
func TestEncodeCacheResetsWithWindow(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) {
		c.NumCRLShards = 1
		c.DropExpiredFromCRL = true
	})
	short := issueOpts(clock, "short")
	short.NotAfter = clock.Now().AddDate(0, 1, 0)
	recShort := authority.IssueRecord(short)
	recLong := authority.IssueRecord(issueOpts(clock, "long"))
	for _, rec := range []*Record{recShort, recLong} {
		if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
			t.Fatal(err)
		}
	}
	if c := crlAt(t, authority, 0); len(c.Entries) != 2 {
		t.Fatalf("entries before expiry = %d", len(c.Entries))
	}
	// Cross the short cert's expiry: the rebuilt CRL must hold only the
	// long-lived cert.
	clock.Advance(60 * 24 * time.Hour)
	c := crlAt(t, authority, 0)
	if len(c.Entries) != 1 || !bytes.Equal(c.Entries[0].Serial, recLong.Serial.Bytes()) {
		t.Fatalf("entries after expiry = %+v", c.Entries)
	}
	// And the cache keeps extending correctly after the reset.
	rec3 := authority.IssueRecord(issueOpts(clock, "after"))
	if err := authority.Revoke(rec3.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	c = crlAt(t, authority, 0)
	if len(c.Entries) != 2 {
		t.Fatalf("entries after post-reset revoke = %d", len(c.Entries))
	}
}

// Future-dated revocations activate mid-window: the incremental path must
// produce them exactly at their activation time, not before.
func TestIncrementalCacheHonorsFutureRevocations(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.NumCRLShards = 1 })
	recNow := authority.IssueRecord(issueOpts(clock, "now"))
	recLater := authority.IssueRecord(issueOpts(clock, "later"))
	if err := authority.Revoke(recNow.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	if err := authority.Revoke(recLater.Serial, clock.Now().Add(48*time.Hour), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	if c := crlAt(t, authority, 0); len(c.Entries) != 1 {
		t.Fatalf("future revocation visible early: %d entries", len(c.Entries))
	}
	clock.Advance(49 * time.Hour)
	if c := crlAt(t, authority, 0); len(c.Entries) != 2 {
		t.Fatalf("activated revocation missing: %d entries", len(c.Entries))
	}
}

// Concurrent CRLBytes and Revoke on the same shard must stay race-free
// and every produced CRL must parse and verify (run under -race via
// make race / race-hot).
func TestCRLBytesConcurrentWithRevoke(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.NumCRLShards = 1 })
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				raw, err := authority.CRLBytes(0)
				if err != nil {
					errs <- err
					return
				}
				c, err := crl.Parse(raw)
				if err != nil {
					errs <- fmt.Errorf("parse: %v", err)
					return
				}
				if err := c.VerifySignature(authority.Certificate()); err != nil {
					errs <- fmt.Errorf("verify: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		rec := authority.IssueRecord(issueOpts(clock, fmt.Sprintf("conc%d", i)))
		if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if c := crlAt(t, authority, 0); len(c.Entries) != 40 {
		t.Fatalf("final entries = %d", len(c.Entries))
	}
}

package ca

import (
	"context"
	"encoding/base64"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
)

// TestCachingResponderEvictsOnRevoke is the end-to-end invalidation
// contract: a serial whose Good response is warm in the pre-signed cache
// must be answered Revoked by the very next query after Revoke returns.
func TestCachingResponderEvictsOnRevoke(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "victim.example.com"))
	srv := httptest.NewServer(authority.Handler())
	defer srv.Close()
	client := &ocsp.Client{}
	check := func() ocsp.SingleResponse {
		t.Helper()
		sr, err := client.CheckContext(context.Background(), srv.URL+"/ocsp", authority.Certificate(), rec.Serial, clock.Now())
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}

	// Warm the cache: two queries, second one served from cache.
	if sr := check(); sr.Status != ocsp.StatusGood {
		t.Fatalf("pre-revocation status = %v", sr.Status)
	}
	check()

	clock.Advance(time.Hour)
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	sr := check()
	if sr.Status != ocsp.StatusRevoked {
		t.Fatalf("post-revocation status = %v: cache served stale Good", sr.Status)
	}
	if sr.Reason != crl.ReasonKeyCompromise {
		t.Errorf("reason = %v", sr.Reason)
	}
}

// TestOCSPSourcePendingRevocationCapsNextUpdate: a revocation recorded
// with a future activation date still answers Good, but the response
// must expire no later than the activation so no cache (ours or a CDN)
// can replay Good past it.
func TestOCSPSourcePendingRevocationCapsNextUpdate(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "pending.example.com"))
	activation := clock.Now().Add(6 * time.Hour) // well inside OCSPValidity (96h)
	if err := authority.Revoke(rec.Serial, activation, crl.ReasonCessationOfOperation); err != nil {
		t.Fatal(err)
	}
	src := authority.OCSPSource()
	sr := src.StatusFor(ocsp.NewCertID(authority.Certificate(), rec.Serial))
	if sr.Status != ocsp.StatusGood {
		t.Fatalf("pending revocation status = %v, want Good until activation", sr.Status)
	}
	if !sr.NextUpdate.Equal(activation) {
		t.Errorf("nextUpdate = %v, want capped at activation %v", sr.NextUpdate, activation)
	}

	// After activation the same source reports Revoked.
	clock.Advance(7 * time.Hour)
	if sr := src.StatusFor(ocsp.NewCertID(authority.Certificate(), rec.Serial)); sr.Status != ocsp.StatusRevoked {
		t.Errorf("post-activation status = %v", sr.Status)
	}
}

// TestHandlerOCSPCacheability checks the handler's OCSP GET responses
// carry the RFC 5019 §6.2 cacheability profile a CDN needs.
func TestHandlerOCSPCacheability(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "h"))
	srv := httptest.NewServer(authority.Handler())
	defer srv.Close()

	req := &ocsp.Request{IDs: []ocsp.CertID{ocsp.NewCertID(authority.Certificate(), rec.Serial)}}
	path := base64.StdEncoding.EncodeToString(req.Marshal())
	resp, err := http.Get(srv.URL + "/ocsp/" + url.PathEscape(path))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("ETag") == "" || resp.Header.Get("Expires") == "" {
		t.Errorf("missing cache validators: %v", resp.Header)
	}
	cc := resp.Header.Get("Cache-Control")
	if cc == "" {
		t.Fatal("no Cache-Control on OCSP GET")
	}
}

// TestHandlerCRLCacheability checks the CRL endpoint advertises its
// remaining validity so the simulated CDN tier can hold it.
func TestHandlerCRLCacheability(t *testing.T) {
	authority, _ := newTestCA(t, nil)
	srv := httptest.NewServer(authority.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/crl/0.crl")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	cc := resp.Header.Get("Cache-Control")
	if cc != "max-age=86400,public" {
		t.Errorf("Cache-Control = %q, want full 24h CRL validity", cc)
	}
	if resp.Header.Get("Expires") == "" {
		t.Error("no Expires on CRL response")
	}
}

// TestOnRevokeHookRuns checks hooks observe the revoked serial exactly
// once and failed revocations fire no hooks.
func TestOnRevokeHookRuns(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "h"))
	var seen []string
	authority.OnRevoke(func(serial *big.Int) { seen = append(seen, serial.String()) })
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != rec.Serial.String() {
		t.Errorf("hook saw %v", seen)
	}
	// Double revocation is an error and must not re-fire the hook.
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err == nil {
		t.Fatal("double revocation succeeded")
	}
	if len(seen) != 1 {
		t.Errorf("hook fired on failed Revoke: %v", seen)
	}
}

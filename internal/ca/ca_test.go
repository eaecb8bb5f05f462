package ca

import (
	"context"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/ocsp"
	"repro/internal/simtime"
	"repro/internal/x509x"
)

func testClock(start time.Time) (*simtime.Clock, func() time.Time) {
	c := simtime.NewClock(start)
	return c, c.Now
}

func newTestCA(t *testing.T, mutate func(*Config)) (*CA, *simtime.Clock) {
	t.Helper()
	clock, now := testClock(simtime.Date(2014, time.January, 1))
	cfg := Config{
		Name:         "TestCA",
		NumCRLShards: 3,
		SerialBytes:  8,
		CRLBaseURL:   "http://crl.testca.test/crl",
		OCSPBaseURL:  "http://ocsp.testca.test/ocsp",
		IncludeCRLDP: true,
		IncludeOCSP:  true,
		Clock:        now,
		Seed:         7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	authority, err := NewRoot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return authority, clock
}

func issueOpts(clock *simtime.Clock, cn string) IssueOptions {
	return IssueOptions{
		CommonName: cn,
		DNSNames:   []string{cn},
		NotBefore:  clock.Now(),
		NotAfter:   clock.Now().AddDate(1, 0, 0),
	}
}

func TestIssueRecordBasics(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	recs := make([]*Record, 7)
	for i := range recs {
		recs[i] = authority.IssueRecord(issueOpts(clock, "host.example.com"))
	}
	if authority.Issued() != 7 {
		t.Fatalf("Issued = %d", authority.Issued())
	}
	// Round-robin shard assignment over 3 shards.
	for i, rec := range recs {
		if rec.Shard != i%3 {
			t.Errorf("record %d shard = %d", i, rec.Shard)
		}
		if !rec.HasCRLDP || !rec.HasOCSP {
			t.Errorf("record %d missing revocation pointers", i)
		}
		if rec.CRLURL == "" || rec.OCSPURL == "" {
			t.Errorf("record %d URLs empty", i)
		}
	}
	pop := shardPopulation(authority)
	if pop[0] != 3 || pop[1] != 2 || pop[2] != 2 {
		t.Errorf("shard population = %v", pop)
	}
	// Serial uniqueness.
	seen := map[string]bool{}
	for _, rec := range recs {
		k := rec.Serial.String()
		if seen[k] {
			t.Fatalf("duplicate serial %s", k)
		}
		seen[k] = true
	}
}

func TestSerialMagnitude(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "x"))
	// IssueRecord pre-caches the magnitude; it must match the big.Int.
	if got, want := rec.SerialMagnitude(), rec.Serial.Bytes(); string(got) != string(want) {
		t.Errorf("cached magnitude %x, want %x", got, want)
	}
	// Hand-built records work with and without InternSerial.
	hand := &Record{Serial: big.NewInt(0x1234)}
	if got := hand.SerialMagnitude(); string(got) != "\x12\x34" {
		t.Errorf("uncached magnitude = %x", got)
	}
	hand.InternSerial()
	if got := hand.SerialMagnitude(); string(got) != "\x12\x34" {
		t.Errorf("interned magnitude = %x", got)
	}
	// Records with no serial at all (corpus test fixtures) must not panic.
	empty := &Record{}
	empty.InternSerial()
	if got := empty.SerialMagnitude(); len(got) != 0 {
		t.Errorf("nil-serial magnitude = %x", got)
	}
}

func TestSerialLengthPolicy(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.SerialBytes = 21 })
	rec := authority.IssueRecord(issueOpts(clock, "x"))
	if got := len(rec.Serial.Bytes()); got != 21 {
		t.Errorf("serial bytes = %d, want 21", got)
	}
	if rec.Serial.Sign() <= 0 {
		t.Error("serial not positive")
	}
}

func TestOmittedPointers(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	opts := issueOpts(clock, "norev.example.com")
	opts.OmitCRLDP = true
	opts.OmitOCSP = true
	rec := authority.IssueRecord(opts)
	if rec.HasCRLDP || rec.HasOCSP || rec.CRLURL != "" || rec.OCSPURL != "" {
		t.Errorf("pointers should be omitted: %+v", rec)
	}
}

func TestIssueFullCertificate(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	opts := issueOpts(clock, "www.example.com")
	opts.EV = true
	cert, rec, err := authority.Issue(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cert.SerialNumber.Cmp(rec.Serial) != 0 {
		t.Error("cert serial != record serial")
	}
	if !cert.IsEV() {
		t.Error("EV policy missing")
	}
	if len(cert.CRLDistributionPoints) != 1 || cert.CRLDistributionPoints[0] != rec.CRLURL {
		t.Errorf("CRLDP = %v", cert.CRLDistributionPoints)
	}
	if len(cert.OCSPServers) != 1 || cert.OCSPServers[0] != rec.OCSPURL {
		t.Errorf("OCSP = %v", cert.OCSPServers)
	}
	if err := cert.CheckSignatureFrom(authority.Certificate()); err != nil {
		t.Errorf("signature: %v", err)
	}
}

func TestIntermediateCA(t *testing.T) {
	root, _ := newTestCA(t, nil)
	child, err := NewIntermediate(Config{
		Name:         "Child",
		CRLBaseURL:   "http://crl.child.test/crl",
		OCSPBaseURL:  "http://ocsp.child.test/ocsp",
		IncludeCRLDP: true,
		IncludeOCSP:  true,
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Certificate().CheckSignatureFrom(root.Certificate()); err != nil {
		t.Errorf("intermediate signature: %v", err)
	}
	// The intermediate's own certificate carries the parent's pointers.
	if len(child.Certificate().CRLDistributionPoints) != 1 {
		t.Errorf("intermediate CRLDP = %v", child.Certificate().CRLDistributionPoints)
	}
	if _, err := NewIntermediate(Config{Name: "Orphan"}, nil); err == nil {
		t.Error("intermediate without parent accepted")
	}
}

func TestRevocationLifecycle(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "victim.example.com"))
	clock.Advance(24 * time.Hour)
	if _, ok := authority.IsRevoked(rec.Serial); ok {
		t.Fatal("fresh cert reported revoked")
	}
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	rev, ok := authority.IsRevoked(rec.Serial)
	if !ok || rev.Reason != crl.ReasonKeyCompromise || rev.Record != rec {
		t.Fatalf("revocation = %+v, %v", rev, ok)
	}
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err == nil {
		t.Error("double revoke accepted")
	}
	if err := authority.Revoke(big.NewInt(987654), clock.Now(), crl.ReasonUnspecified); err == nil {
		t.Error("revoking unknown serial accepted")
	}
	if len(authority.Revocations()) != 1 {
		t.Errorf("Revocations = %d", len(authority.Revocations()))
	}
}

func TestCRLGenerationPerShard(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	var recs []*Record
	for i := 0; i < 9; i++ {
		recs = append(recs, authority.IssueRecord(issueOpts(clock, "h")))
	}
	clock.Advance(time.Hour)
	// Revoke three certs on shard 0 (indices 0, 3, 6) and one on shard 1.
	for _, i := range []int{0, 3, 6, 1} {
		if err := authority.Revoke(recs[i].Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
			t.Fatal(err)
		}
	}
	raw0, err := authority.CRLBytes(0)
	if err != nil {
		t.Fatal(err)
	}
	crl0, err := crl.Parse(raw0)
	if err != nil {
		t.Fatal(err)
	}
	if len(crl0.Entries) != 3 {
		t.Errorf("shard 0 entries = %d", len(crl0.Entries))
	}
	if err := crl0.VerifySignature(authority.Certificate()); err != nil {
		t.Errorf("CRL signature: %v", err)
	}
	raw2, err := authority.CRLBytes(2)
	if err != nil {
		t.Fatal(err)
	}
	crl2, err := crl.Parse(raw2)
	if err != nil {
		t.Fatal(err)
	}
	if len(crl2.Entries) != 0 {
		t.Errorf("shard 2 entries = %d", len(crl2.Entries))
	}
	if _, err := authority.CRLBytes(99); err == nil {
		t.Error("CRLBytes(99) accepted")
	}
}

func TestCRLFutureRevocationsExcluded(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "h"))
	future := clock.Now().Add(48 * time.Hour)
	if err := authority.Revoke(rec.Serial, future, crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	entries := authority.CRLEntries(rec.Shard, clock.Now())
	if len(entries) != 0 {
		t.Errorf("future revocation leaked into current CRL: %v", entries)
	}
	entries = authority.CRLEntries(rec.Shard, future)
	if len(entries) != 1 {
		t.Errorf("revocation missing at its effective time")
	}
}

func TestDropExpiredFromCRL(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.DropExpiredFromCRL = true })
	opts := issueOpts(clock, "short.example.com")
	opts.NotAfter = clock.Now().AddDate(0, 1, 0)
	rec := authority.IssueRecord(opts)
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	if got := len(authority.CRLEntries(rec.Shard, clock.Now())); got != 1 {
		t.Fatalf("entries before expiry = %d", got)
	}
	clock.Advance(60 * 24 * time.Hour)
	if got := len(authority.CRLEntries(rec.Shard, clock.Now())); got != 0 {
		t.Errorf("expired revocation still on CRL")
	}
}

func TestOCSPSourceStatuses(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	good := authority.IssueRecord(issueOpts(clock, "good.example.com"))
	bad := authority.IssueRecord(issueOpts(clock, "bad.example.com"))
	clock.Advance(time.Hour)
	if err := authority.Revoke(bad.Serial, clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	src := authority.OCSPSource()
	caCert := authority.Certificate()

	if sr := src.StatusFor(ocsp.NewCertID(caCert, good.Serial)); sr.Status != ocsp.StatusGood {
		t.Errorf("good status = %v", sr.Status)
	}
	sr := src.StatusFor(ocsp.NewCertID(caCert, bad.Serial))
	if sr.Status != ocsp.StatusRevoked || sr.Reason != crl.ReasonKeyCompromise {
		t.Errorf("revoked status = %+v", sr)
	}
	if sr := src.StatusFor(ocsp.NewCertID(caCert, big.NewInt(123456789))); sr.Status != ocsp.StatusUnknown {
		t.Errorf("unknown serial status = %v", sr.Status)
	}
	// A CertID for a different issuer must be unknown.
	other, _ := newTestCA(t, func(c *Config) { c.Name = "OtherCA" })
	if sr := src.StatusFor(ocsp.NewCertID(other.Certificate(), good.Serial)); sr.Status != ocsp.StatusUnknown {
		t.Errorf("foreign issuer status = %v", sr.Status)
	}
}

func TestHandlerServesCRLAndOCSP(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "h"))
	clock.Advance(time.Hour)
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(authority.Handler())
	defer srv.Close()

	// CRL download.
	resp, err := http.Get(srv.URL + "/crl/" + itoa(rec.Shard) + ".crl")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CRL status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/pkix-crl" {
		t.Errorf("content type = %q", ct)
	}
	parsed, err := crl.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed.LookupSerial(rec.Serial.Bytes()); !ok {
		t.Error("served CRL missing revocation")
	}

	// Unknown shard: 404.
	resp404, err := http.Get(srv.URL + "/crl/42.crl")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown shard status = %d", resp404.StatusCode)
	}

	// OCSP via the mounted responder.
	client := &ocsp.Client{}
	sr, err := client.CheckContext(context.Background(), srv.URL+"/ocsp", authority.Certificate(), rec.Serial, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Status != ocsp.StatusRevoked {
		t.Errorf("OCSP status = %v", sr.Status)
	}
}

func TestCRLCacheRespectsValidity(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.CRLValidity = 24 * time.Hour })
	rec := authority.IssueRecord(issueOpts(clock, "h"))
	srv := httptest.NewServer(authority.Handler())
	defer srv.Close()

	fetch := func() *crl.CRL {
		resp, err := http.Get(srv.URL + "/crl/" + itoa(rec.Shard) + ".crl")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		parsed, err := crl.Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	first := fetch()
	// Revoke now; cached CRL should still be served within validity.
	clock.Advance(time.Hour)
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonUnspecified); err != nil {
		t.Fatal(err)
	}
	second := fetch()
	if _, ok := second.LookupSerial(rec.Serial.Bytes()); ok {
		t.Error("cache regenerated CRL before expiry")
	}
	if !second.ThisUpdate.Equal(first.ThisUpdate) {
		t.Error("cached CRL changed")
	}
	// After the validity window, a fresh CRL carries the revocation.
	clock.Advance(24 * time.Hour)
	third := fetch()
	if _, ok := third.LookupSerial(rec.Serial.Bytes()); !ok {
		t.Error("regenerated CRL missing revocation")
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// shardPopulation counts the issued certificates assigned to each shard.
func shardPopulation(ca *CA) []int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	pop := make([]int, ca.cfg.NumCRLShards)
	for _, rec := range ca.issuedSeq {
		pop[rec.Shard]++
	}
	return pop
}

func TestRootCertificateProperties(t *testing.T) {
	authority, _ := newTestCA(t, nil)
	cert := authority.Certificate()
	if !cert.IsCA {
		t.Error("CA cert not marked CA")
	}
	if cert.KeyUsage&x509x.KeyUsageCRLSign == 0 {
		t.Error("CA cert cannot sign CRLs")
	}
	if authority.NumShards() != 3 {
		t.Errorf("NumShards = %d", authority.NumShards())
	}
	if authority.CRLURL(1) != "http://crl.testca.test/crl/1.crl" {
		t.Errorf("CRLURL = %s", authority.CRLURL(1))
	}
	if authority.OCSPURL() != "http://ocsp.testca.test/ocsp" {
		t.Errorf("OCSPURL = %s", authority.OCSPURL())
	}
}

func TestDelegatedOCSPResponder(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) { c.DelegatedOCSP = true })
	rec := authority.IssueRecord(issueOpts(clock, "delegated.example"))
	srv := httptest.NewServer(authority.Handler())
	defer srv.Close()

	// The client trusts the CA; the response arrives signed by the
	// delegate with its certificate embedded.
	sr, err := (&ocsp.Client{}).CheckContext(context.Background(), srv.URL+"/ocsp", authority.Certificate(), rec.Serial, clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Status != ocsp.StatusGood {
		t.Errorf("status = %v", sr.Status)
	}
	responder := authority.Responder()
	if responder.Signer.Subject.CommonName != "TestCA OCSP Responder" {
		t.Errorf("signer = %v", responder.Signer.Subject)
	}
	// The delegate has the right EKU and is registered in the CA book.
	found := false
	for _, eku := range responder.Signer.ExtKeyUsage {
		if eku.Equal(x509x.OIDEKUOCSPSigning) {
			found = true
		}
	}
	if !found {
		t.Error("delegate missing OCSPSigning EKU")
	}
	// Lazy issuance is stable: a second Responder reuses the delegate.
	if again := authority.Responder(); again.Signer != responder.Signer {
		t.Error("delegate reissued")
	}
}

func TestRecordAccessors(t *testing.T) {
	authority, clock := newTestCA(t, nil)
	rec := authority.IssueRecord(issueOpts(clock, "acc.example"))
	if !rec.FreshAt(clock.Now()) {
		t.Error("record not fresh at issuance")
	}
	if rec.FreshAt(clock.Now().AddDate(2, 0, 0)) {
		t.Error("record fresh after expiry")
	}
	if recs := authority.issuedSeq; len(recs) != 1 || recs[0] != rec {
		t.Errorf("issued records = %d", len(recs))
	}
	signerCert, signerKey := authority.Signer()
	if signerCert != authority.Certificate() || signerKey == nil {
		t.Error("Signer accessor")
	}
}

func TestShardSkewConcentrates(t *testing.T) {
	skewed, clock := newTestCA(t, func(c *Config) {
		c.NumCRLShards = 10
		c.ShardSkew = 1.5
		c.Seed = 11
	})
	for i := 0; i < 2000; i++ {
		skewed.IssueRecord(issueOpts(clock, "s"))
	}
	pop := shardPopulation(skewed)
	if pop[0] <= pop[9]*2 {
		t.Errorf("skewed shard population not concentrated: %v", pop)
	}
	total := 0
	for _, n := range pop {
		total += n
	}
	if total != 2000 {
		t.Errorf("population total = %d", total)
	}
}

func TestPublishRevocationsImmediately(t *testing.T) {
	authority, clock := newTestCA(t, func(c *Config) {
		c.CRLValidity = 24 * time.Hour
		c.PublishRevocationsImmediately = true
	})
	rec := authority.IssueRecord(issueOpts(clock, "i"))
	srv := httptest.NewServer(authority.Handler())
	defer srv.Close()

	fetch := func() *crl.CRL {
		resp, err := http.Get(srv.URL + "/crl/" + itoa(rec.Shard) + ".crl")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		parsed, err := crl.Parse(body)
		if err != nil {
			t.Fatal(err)
		}
		return parsed
	}
	first := fetch()
	if _, ok := first.LookupSerial(rec.Serial.Bytes()); ok {
		t.Fatal("fresh CRL already contains the serial")
	}
	// Revoke well inside the validity window: the very next fetch must
	// carry the revocation instead of the cached copy.
	clock.Advance(time.Hour)
	if err := authority.Revoke(rec.Serial, clock.Now(), crl.ReasonKeyCompromise); err != nil {
		t.Fatal(err)
	}
	second := fetch()
	if _, ok := second.LookupSerial(rec.Serial.Bytes()); !ok {
		t.Error("revocation not published on next fetch despite PublishRevocationsImmediately")
	}
	// No further revocations: the regenerated copy is cached again.
	third := fetch()
	if !third.ThisUpdate.Equal(second.ThisUpdate) {
		t.Error("CRL regenerated without an intervening revocation")
	}
}

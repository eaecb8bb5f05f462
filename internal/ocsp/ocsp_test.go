package ocsp

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/crl"
	"repro/internal/x509x"
)

var testNow = time.Date(2015, 3, 31, 12, 0, 0, 0, time.UTC)

func newCA(t testing.TB) (*x509x.Certificate, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509x.NewTemplate(big.NewInt(1), x509x.Name{CommonName: "OCSP Test CA"},
		testNow.AddDate(-2, 0, 0), testNow.AddDate(2, 0, 0))
	tmpl.IsCA = true
	tmpl.KeyUsage = x509x.KeyUsageCertSign | x509x.KeyUsageCRLSign
	raw, err := x509x.Create(tmpl, nil, key, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return cert, key
}

func TestCertID(t *testing.T) {
	ca, _ := newCA(t)
	a := NewCertID(ca, big.NewInt(100))
	b := NewCertID(ca, big.NewInt(100))
	c := NewCertID(ca, big.NewInt(101))
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("identical CertIDs not equal")
	}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Error("distinct serials produced equal CertIDs")
	}
	if len(a.IssuerNameHash) != 32 || len(a.IssuerKeyHash) != 32 {
		t.Errorf("hash lengths %d/%d", len(a.IssuerNameHash), len(a.IssuerKeyHash))
	}
}

// TestCertIDMatchesDerivation: NewCertID reads the issuer's memoised
// hashes and keeps the caller's serial; what it returns must encode,
// byte for byte, as the CertID derived from scratch the way NewCertID
// derived it before (two SHA-256s, the marshalled point, a copied
// serial), for 1,000 (issuer, serial) pairs.
func TestCertIDMatchesDerivation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 10; i++ {
		ca, _ := newCA(t)
		nameHash := sha256.Sum256(ca.RawSubject)
		keyHash := sha256.Sum256(elliptic.Marshal(elliptic.P256(), ca.PublicKey.X, ca.PublicKey.Y))
		for j := 0; j < 100; j++ {
			mag := make([]byte, rng.Intn(22)) // zero through 21 bytes
			rng.Read(mag)
			serial := new(big.Int).SetBytes(mag)
			want := CertID{IssuerNameHash: nameHash[:], IssuerKeyHash: keyHash[:], Serial: new(big.Int).Set(serial)}
			got := NewCertID(ca, serial)
			if !bytes.Equal(got.encode(), want.encode()) || got.Key() != want.Key() || !got.Equal(want) {
				t.Fatalf("issuer %d serial %x: CertID %x, want %x", i, mag, got.encode(), want.encode())
			}
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	ca, _ := newCA(t)
	req := &Request{
		IDs:   []CertID{NewCertID(ca, big.NewInt(5)), NewCertID(ca, big.NewInt(6))},
		Nonce: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	enc := req.Marshal()
	got, err := ParseRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 2 || !got.IDs[0].Equal(req.IDs[0]) || !got.IDs[1].Equal(req.IDs[1]) {
		t.Errorf("IDs round trip failed: %+v", got.IDs)
	}
	if !bytes.Equal(got.Nonce, req.Nonce) {
		t.Errorf("nonce = %x", got.Nonce)
	}
}

func TestRequestWithoutNonce(t *testing.T) {
	ca, _ := newCA(t)
	req := &Request{IDs: []CertID{NewCertID(ca, big.NewInt(5))}}
	got, err := ParseRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Nonce != nil {
		t.Errorf("nonce should be absent, got %x", got.Nonce)
	}
}

func TestResponseRoundTripAllStatuses(t *testing.T) {
	ca, key := newCA(t)
	revokedAt := testNow.Add(-30 * 24 * time.Hour)
	tmpl := &ResponseTemplate{
		ProducedAt: testNow,
		Responses: []SingleResponse{
			{ID: NewCertID(ca, big.NewInt(1)), Status: StatusGood, ThisUpdate: testNow, NextUpdate: testNow.Add(96 * time.Hour)},
			{ID: NewCertID(ca, big.NewInt(2)), Status: StatusRevoked, RevokedAt: revokedAt, Reason: crl.ReasonKeyCompromise, ThisUpdate: testNow, NextUpdate: testNow.Add(96 * time.Hour)},
			{ID: NewCertID(ca, big.NewInt(3)), Status: StatusUnknown, ThisUpdate: testNow},
		},
		Nonce: []byte{9, 9, 9},
	}
	raw, err := CreateResponse(tmpl, ca, key)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RespStatus != RespSuccessful {
		t.Fatalf("status = %v", resp.RespStatus)
	}
	if err := resp.VerifySignature(ca); err != nil {
		t.Fatalf("signature: %v", err)
	}
	if !resp.ProducedAt.Equal(testNow) {
		t.Errorf("producedAt = %v", resp.ProducedAt)
	}
	if !bytes.Equal(resp.Nonce, tmpl.Nonce) {
		t.Errorf("nonce = %x", resp.Nonce)
	}
	good, ok := resp.Find(NewCertID(ca, big.NewInt(1)))
	if !ok || good.Status != StatusGood {
		t.Errorf("good: %+v %v", good, ok)
	}
	rev, ok := resp.Find(NewCertID(ca, big.NewInt(2)))
	if !ok || rev.Status != StatusRevoked || !rev.RevokedAt.Equal(revokedAt) || rev.Reason != crl.ReasonKeyCompromise {
		t.Errorf("revoked: %+v", rev)
	}
	unk, ok := resp.Find(NewCertID(ca, big.NewInt(3)))
	if !ok || unk.Status != StatusUnknown {
		t.Errorf("unknown: %+v", unk)
	}
	if unk.NextUpdate.IsZero() != true {
		t.Errorf("nextUpdate should be absent for the unknown response")
	}
	if _, ok := resp.Find(NewCertID(ca, big.NewInt(99))); ok {
		t.Error("found response for unqueried serial")
	}
}

func TestRevokedWithoutReason(t *testing.T) {
	ca, key := newCA(t)
	tmpl := &ResponseTemplate{
		ProducedAt: testNow,
		Responses: []SingleResponse{
			{ID: NewCertID(ca, big.NewInt(2)), Status: StatusRevoked, RevokedAt: testNow, Reason: crl.ReasonAbsent, ThisUpdate: testNow},
		},
	}
	raw, err := CreateResponse(tmpl, ca, key)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Responses[0].Reason != crl.ReasonAbsent {
		t.Errorf("reason = %v", resp.Responses[0].Reason)
	}
}

func TestErrorResponses(t *testing.T) {
	for _, status := range []ResponseStatus{RespMalformedRequest, RespInternalError, RespTryLater, RespUnauthorized} {
		raw := createErrorResponse(status)
		resp, err := ParseResponse(raw)
		if err != nil {
			t.Fatalf("%v: %v", status, err)
		}
		if resp.RespStatus != status {
			t.Errorf("round trip %v = %v", status, resp.RespStatus)
		}
		if err := resp.VerifySignature(nil); err == nil {
			t.Error("VerifySignature on error response should fail")
		}
	}
}

func TestVerifySignatureRejectsWrongSigner(t *testing.T) {
	ca, key := newCA(t)
	other, _ := newCA(t)
	raw, err := CreateResponse(&ResponseTemplate{
		ProducedAt: testNow,
		Responses:  []SingleResponse{{ID: NewCertID(ca, big.NewInt(1)), Status: StatusGood, ThisUpdate: testNow}},
	}, ca, key)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.VerifySignature(other); err == nil {
		t.Error("accepted response signed by a different CA")
	}
}

func TestSingleResponseCurrentAt(t *testing.T) {
	sr := SingleResponse{ThisUpdate: testNow, NextUpdate: testNow.Add(24 * time.Hour)}
	if !sr.CurrentAt(testNow) || !sr.CurrentAt(testNow.Add(24*time.Hour)) {
		t.Error("boundaries should be current")
	}
	if sr.CurrentAt(testNow.Add(-time.Second)) || sr.CurrentAt(testNow.Add(25*time.Hour)) {
		t.Error("outside window should not be current")
	}
	open := SingleResponse{ThisUpdate: testNow}
	if !open.CurrentAt(testNow.AddDate(1, 0, 0)) {
		t.Error("response without nextUpdate should not expire")
	}
	if _, err := ValidatedStatus(sr, testNow.Add(48*time.Hour)); err == nil {
		t.Error("ValidatedStatus should reject stale response")
	}
	if st, err := ValidatedStatus(sr, testNow); err != nil || st != StatusGood {
		t.Errorf("ValidatedStatus = %v, %v", st, err)
	}
}

// revocationSource is a test Source backed by a set of revoked serials.
type revocationSource struct {
	ca      *x509x.Certificate
	revoked map[int64]crl.Reason
}

func (s *revocationSource) StatusFor(id CertID) SingleResponse {
	want := NewCertID(s.ca, id.Serial)
	if !want.Equal(id) {
		// Unknown issuer.
		return SingleResponse{ID: id, Status: StatusUnknown}
	}
	if reason, ok := s.revoked[id.Serial.Int64()]; ok {
		return SingleResponse{ID: id, Status: StatusRevoked, RevokedAt: testNow.Add(-time.Hour), Reason: reason}
	}
	return SingleResponse{ID: id, Status: StatusGood}
}

func newResponderServer(t *testing.T, ca *x509x.Certificate, key *ecdsa.PrivateKey, src Source) *httptest.Server {
	t.Helper()
	responder := &Responder{
		Source:    src,
		Signer:    ca,
		Key:       key,
		Now:       func() time.Time { return testNow },
		EchoNonce: true,
	}
	srv := httptest.NewServer(responder)
	t.Cleanup(srv.Close)
	return srv
}

func TestResponderEndToEnd(t *testing.T) {
	ca, key := newCA(t)
	src := &revocationSource{ca: ca, revoked: map[int64]crl.Reason{666: crl.ReasonKeyCompromise}}
	srv := newResponderServer(t, ca, key, src)

	for _, transport := range []Transport{TransportGET, TransportPOST} {
		client := &Client{Transport: transport}
		sr, err := client.Check(srv.URL, ca, big.NewInt(1))
		if err != nil {
			t.Fatalf("transport %v: %v", transport, err)
		}
		if sr.Status != StatusGood {
			t.Errorf("transport %v: status = %v", transport, sr.Status)
		}
		sr, err = client.Check(srv.URL, ca, big.NewInt(666))
		if err != nil {
			t.Fatalf("transport %v: %v", transport, err)
		}
		if sr.Status != StatusRevoked || sr.Reason != crl.ReasonKeyCompromise {
			t.Errorf("transport %v: revoked status = %+v", transport, sr)
		}
		if sr.NextUpdate.IsZero() {
			t.Error("responder should fill nextUpdate")
		}
	}
}

func TestResponderForceUnknown(t *testing.T) {
	ca, key := newCA(t)
	unknown := StatusUnknown
	responder := &Responder{
		Source:      SourceFunc(func(id CertID) SingleResponse { return SingleResponse{Status: StatusGood} }),
		Signer:      ca,
		Key:         key,
		Now:         func() time.Time { return testNow },
		ForceStatus: &unknown,
	}
	srv := httptest.NewServer(responder)
	defer srv.Close()
	client := &Client{}
	sr, err := client.Check(srv.URL, ca, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Status != StatusUnknown {
		t.Errorf("status = %v, want unknown", sr.Status)
	}
}

func TestResponderMalformedRequest(t *testing.T) {
	ca, key := newCA(t)
	srv := newResponderServer(t, ca, key, SourceFunc(func(id CertID) SingleResponse {
		return SingleResponse{Status: StatusGood}
	}))
	resp, err := http.Post(srv.URL, "application/ocsp-request", bytes.NewReader([]byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	parsed, err := (&Client{}).Fetch(srv.URL+"/Z2FyYmFnZQ==", &Request{IDs: []CertID{NewCertID(ca, big.NewInt(1))}})
	_ = parsed
	_ = err
	// Direct check of the POST path:
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	errResp, err := ParseResponse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if errResp.RespStatus != RespMalformedRequest {
		t.Errorf("status = %v", errResp.RespStatus)
	}
}

func TestResponderRejectsOtherMethods(t *testing.T) {
	ca, key := newCA(t)
	srv := newResponderServer(t, ca, key, SourceFunc(func(id CertID) SingleResponse {
		return SingleResponse{Status: StatusGood}
	}))
	req, _ := http.NewRequest(http.MethodDelete, srv.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d", resp.StatusCode)
	}
}

func TestClientRejectsHTTPErrors(t *testing.T) {
	ca, _ := newCA(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	client := &Client{}
	if _, err := client.Check(srv.URL, ca, big.NewInt(1)); err == nil {
		t.Error("client accepted a 404 responder")
	}
}

func TestNonceEchoedEndToEnd(t *testing.T) {
	ca, key := newCA(t)
	srv := newResponderServer(t, ca, key, SourceFunc(func(id CertID) SingleResponse {
		return SingleResponse{Status: StatusGood}
	}))
	client := &Client{}
	nonce := []byte{0xde, 0xad, 0xbe, 0xef}
	resp, err := client.Fetch(srv.URL, &Request{IDs: []CertID{NewCertID(ca, big.NewInt(1))}, Nonce: nonce})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Nonce, nonce) {
		t.Errorf("echoed nonce = %x", resp.Nonce)
	}
}

func TestParseResponseGarbage(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":   {},
		"garbage": {0xff, 0x00, 0x12},
	} {
		if _, err := ParseResponse(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusGood.String() != "good" || StatusRevoked.String() != "revoked" || StatusUnknown.String() != "unknown" {
		t.Error("status strings wrong")
	}
	if Status(9).String() != "status(9)" {
		t.Error("unknown status string")
	}
	if RespTryLater.String() != "tryLater" || ResponseStatus(9).String() != "responseStatus(9)" {
		t.Error("response status strings wrong")
	}
}

func TestDelegatedResponder(t *testing.T) {
	// RFC 6960 §4.2.2.2: the CA delegates OCSP signing to a dedicated
	// certificate with the OCSPSigning EKU; clients must accept its
	// signature because the delegate is embedded in the response.
	caCert, caKey := newCA(t)
	delKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509x.NewTemplate(big.NewInt(77), x509x.Name{CommonName: "OCSP Delegate"},
		testNow.AddDate(0, -1, 0), testNow.AddDate(1, 0, 0))
	tmpl.KeyUsage = x509x.KeyUsageDigitalSignature
	tmpl.ExtKeyUsage = []x509x.OID{x509x.OIDEKUOCSPSigning}
	raw, err := x509x.Create(tmpl, caCert, caKey, &delKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	delegate, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}

	id := NewCertID(caCert, big.NewInt(5))
	respRaw, err := CreateResponse(&ResponseTemplate{
		ProducedAt: testNow,
		Responses:  []SingleResponse{{ID: id, Status: StatusGood, ThisUpdate: testNow}},
	}, delegate, delKey)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(respRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Certificates) != 1 || resp.Certificates[0].Subject.CommonName != "OCSP Delegate" {
		t.Fatalf("embedded certs = %d", len(resp.Certificates))
	}
	// Direct check against the CA fails (the CA didn't sign)...
	if err := resp.VerifySignature(caCert); err == nil {
		t.Error("direct CA verification should fail for delegated response")
	}
	// ...but the delegated model succeeds.
	if err := resp.VerifySignatureFrom(caCert); err != nil {
		t.Errorf("delegated verification failed: %v", err)
	}
	// A delegate issued by a DIFFERENT CA must be rejected.
	other, _ := newCA(t)
	if err := resp.VerifySignatureFrom(other); err == nil {
		t.Error("foreign CA accepted the delegate")
	}
}

func TestDelegateWithoutEKURejected(t *testing.T) {
	caCert, caKey := newCA(t)
	impKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	// A normal server certificate (no OCSPSigning EKU) tries to sign
	// responses — an impersonation attempt that must fail.
	tmpl := x509x.NewTemplate(big.NewInt(88), x509x.Name{CommonName: "Imposter"},
		testNow.AddDate(0, -1, 0), testNow.AddDate(1, 0, 0))
	tmpl.KeyUsage = x509x.KeyUsageDigitalSignature
	tmpl.ExtKeyUsage = []x509x.OID{x509x.OIDEKUServerAuth}
	raw, err := x509x.Create(tmpl, caCert, caKey, &impKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	respRaw, err := CreateResponse(&ResponseTemplate{
		ProducedAt: testNow,
		Responses:  []SingleResponse{{ID: NewCertID(caCert, big.NewInt(5)), Status: StatusGood, ThisUpdate: testNow}},
	}, imposter, impKey)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(respRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.VerifySignatureFrom(caCert); err == nil {
		t.Error("imposter without OCSPSigning EKU accepted")
	}
}

func TestDelegatedResponderOverHTTP(t *testing.T) {
	caCert, caKey := newCA(t)
	delKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509x.NewTemplate(big.NewInt(79), x509x.Name{CommonName: "HTTP Delegate"},
		testNow.AddDate(0, -1, 0), testNow.AddDate(1, 0, 0))
	tmpl.KeyUsage = x509x.KeyUsageDigitalSignature
	tmpl.ExtKeyUsage = []x509x.OID{x509x.OIDEKUOCSPSigning}
	raw, err := x509x.Create(tmpl, caCert, caKey, &delKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	delegate, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	responder := &Responder{
		Source: SourceFunc(func(CertID) SingleResponse { return SingleResponse{Status: StatusGood} }),
		Signer: delegate,
		Key:    delKey,
		Now:    func() time.Time { return testNow },
	}
	srv := httptest.NewServer(responder)
	defer srv.Close()
	// The client verifies against the CA; the delegate rides along in
	// the response.
	sr, err := (&Client{}).Check(srv.URL, caCert, big.NewInt(123))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Status != StatusGood {
		t.Errorf("status = %v", sr.Status)
	}
}

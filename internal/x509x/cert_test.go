package x509x

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"math/big"
	"testing"
	"time"

	"repro/internal/der"
)

var (
	testNotBefore = time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	testNotAfter  = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
)

// newTestCA builds a self-signed root for tests.
func newTestCA(t *testing.T) (*Certificate, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := NewTemplate(big.NewInt(1), Name{CommonName: "Test Root", Organization: "Test Org", Country: "US"}, testNotBefore, testNotAfter)
	tmpl.IsCA = true
	tmpl.KeyUsage = KeyUsageCertSign | KeyUsageCRLSign
	raw, err := Create(tmpl, nil, key, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return cert, key
}

func issueLeaf(t *testing.T, parent *Certificate, parentKey *ecdsa.PrivateKey, mutate func(*Template)) (*Certificate, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := NewTemplate(big.NewInt(42), Name{CommonName: "www.example.com"}, testNotBefore, testNotAfter)
	tmpl.KeyUsage = KeyUsageDigitalSignature | KeyUsageKeyEncipherment
	tmpl.ExtKeyUsage = []der.OID{OIDEKUServerAuth}
	tmpl.DNSNames = []string{"www.example.com", "example.com"}
	tmpl.CRLDistributionPoints = []string{"http://crl.example.com/ca.crl"}
	tmpl.OCSPServers = []string{"http://ocsp.example.com"}
	if mutate != nil {
		mutate(tmpl)
	}
	raw, err := Create(tmpl, parent, parentKey, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return cert, key
}

func TestSelfSignedRoundTrip(t *testing.T) {
	root, _ := newTestCA(t)
	if !root.IsCA {
		t.Error("root not CA")
	}
	if root.Subject.CommonName != "Test Root" || root.Issuer.CommonName != "Test Root" {
		t.Errorf("names: subject=%v issuer=%v", root.Subject, root.Issuer)
	}
	if !NamesEqual(root.RawIssuer, root.RawSubject) {
		t.Error("self-signed issuer != subject bytes")
	}
	if err := root.CheckSignatureFrom(root); err != nil {
		t.Errorf("self signature: %v", err)
	}
	if root.KeyUsage&KeyUsageCertSign == 0 || root.KeyUsage&KeyUsageCRLSign == 0 {
		t.Errorf("key usage = %b", root.KeyUsage)
	}
	if len(root.SubjectKeyID) != 20 {
		t.Errorf("SKID length %d", len(root.SubjectKeyID))
	}
}

func TestLeafFields(t *testing.T) {
	root, rootKey := newTestCA(t)
	leaf, _ := issueLeaf(t, root, rootKey, nil)
	if leaf.IsCA {
		t.Error("leaf marked CA")
	}
	if leaf.SerialNumber.Int64() != 42 {
		t.Errorf("serial = %v", leaf.SerialNumber)
	}
	if len(leaf.DNSNames) != 2 || leaf.DNSNames[0] != "www.example.com" {
		t.Errorf("DNS names = %v", leaf.DNSNames)
	}
	if len(leaf.CRLDistributionPoints) != 1 || leaf.CRLDistributionPoints[0] != "http://crl.example.com/ca.crl" {
		t.Errorf("CRLDP = %v", leaf.CRLDistributionPoints)
	}
	if len(leaf.OCSPServers) != 1 || leaf.OCSPServers[0] != "http://ocsp.example.com" {
		t.Errorf("OCSP = %v", leaf.OCSPServers)
	}
	if !leaf.HasRevocationInfo() {
		t.Error("leaf should have revocation info")
	}
	if err := leaf.CheckSignatureFrom(root); err != nil {
		t.Errorf("chain signature: %v", err)
	}
	if !bytes.Equal(leaf.AuthorityKeyID, root.SubjectKeyID) {
		t.Error("AKID does not match issuer SKID")
	}
	if len(leaf.ExtKeyUsage) != 1 || !leaf.ExtKeyUsage[0].Equal(OIDEKUServerAuth) {
		t.Errorf("EKU = %v", leaf.ExtKeyUsage)
	}
}

func TestEVDetection(t *testing.T) {
	root, rootKey := newTestCA(t)
	dv, _ := issueLeaf(t, root, rootKey, nil)
	if dv.IsEV() {
		t.Error("DV leaf reported EV")
	}
	ev, _ := issueLeaf(t, root, rootKey, func(tmpl *Template) {
		tmpl.PolicyOIDs = []der.OID{OIDPolicyVerisignEV}
	})
	if !ev.IsEV() {
		t.Error("EV leaf not detected")
	}
}

func TestNoRevocationInfo(t *testing.T) {
	root, rootKey := newTestCA(t)
	bare, _ := issueLeaf(t, root, rootKey, func(tmpl *Template) {
		tmpl.CRLDistributionPoints = nil
		tmpl.OCSPServers = nil
	})
	if bare.HasRevocationInfo() {
		t.Error("certificate without CRLDP/AIA claims revocation info")
	}
}

func TestFreshAt(t *testing.T) {
	root, rootKey := newTestCA(t)
	leaf, _ := issueLeaf(t, root, rootKey, nil)
	if !leaf.FreshAt(testNotBefore) || !leaf.FreshAt(testNotAfter) {
		t.Error("boundaries should be fresh")
	}
	if leaf.FreshAt(testNotBefore.Add(-time.Second)) || leaf.FreshAt(testNotAfter.Add(time.Second)) {
		t.Error("outside validity should not be fresh")
	}
}

func TestWrongIssuerSignature(t *testing.T) {
	root, rootKey := newTestCA(t)
	other, otherKey := newTestCA(t)
	leaf, _ := issueLeaf(t, root, rootKey, nil)
	if err := leaf.CheckSignatureFrom(other); err == nil {
		t.Error("accepted signature from unrelated CA")
	}
	_ = otherKey
	// Corrupt the signature of a second parse (a Certificate is not copied
	// by value: it carries its memoised identity).
	bad, err := Parse(leaf.Raw)
	if err != nil {
		t.Fatal(err)
	}
	bad.Signature = append([]byte(nil), leaf.Signature...)
	bad.Signature[10] ^= 0xff
	if err := bad.CheckSignatureFrom(root); err == nil {
		t.Error("accepted corrupted signature")
	}
}

func TestStdlibParsesOurCertificates(t *testing.T) {
	root, rootKey := newTestCA(t)
	leaf, _ := issueLeaf(t, root, rootKey, func(tmpl *Template) {
		tmpl.PolicyOIDs = []der.OID{OIDPolicyVerisignEV}
	})

	stdRoot, err := x509.ParseCertificate(root.Raw)
	if err != nil {
		t.Fatalf("stdlib rejected our root: %v", err)
	}
	stdLeaf, err := x509.ParseCertificate(leaf.Raw)
	if err != nil {
		t.Fatalf("stdlib rejected our leaf: %v", err)
	}
	if !stdRoot.IsCA {
		t.Error("stdlib lost IsCA")
	}
	if stdLeaf.Subject.CommonName != "www.example.com" {
		t.Errorf("stdlib subject CN = %q", stdLeaf.Subject.CommonName)
	}
	if len(stdLeaf.CRLDistributionPoints) != 1 || stdLeaf.CRLDistributionPoints[0] != "http://crl.example.com/ca.crl" {
		t.Errorf("stdlib CRLDP = %v", stdLeaf.CRLDistributionPoints)
	}
	if len(stdLeaf.OCSPServer) != 1 || stdLeaf.OCSPServer[0] != "http://ocsp.example.com" {
		t.Errorf("stdlib OCSP = %v", stdLeaf.OCSPServer)
	}
	if len(stdLeaf.DNSNames) != 2 {
		t.Errorf("stdlib DNS names = %v", stdLeaf.DNSNames)
	}
	// Full stdlib chain verification over our DER.
	pool := x509.NewCertPool()
	pool.AddCert(stdRoot)
	if _, err := stdLeaf.Verify(x509.VerifyOptions{
		Roots:       pool,
		CurrentTime: testNotBefore.AddDate(0, 6, 0),
	}); err != nil {
		t.Fatalf("stdlib chain verification failed: %v", err)
	}
}

func TestWeParseStdlibCertificates(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(777),
		Subject: pkix.Name{
			CommonName:   "std.example.org",
			Organization: []string{"Std Org"},
			Country:      []string{"JP"},
		},
		NotBefore:             testNotBefore,
		NotAfter:              testNotAfter,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLen:            2,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
		DNSNames:              []string{"std.example.org"},
		CRLDistributionPoints: []string{"http://crl.std.org/1.crl"},
		OCSPServer:            []string{"http://ocsp.std.org"},
		PolicyIdentifiers:     []asn1OID{{2, 16, 840, 1, 113733, 1, 7, 23, 6}},
		SignatureAlgorithm:    x509.ECDSAWithSHA256,
	}
	raw, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(raw)
	if err != nil {
		t.Fatalf("our parser rejected stdlib cert: %v", err)
	}
	if c.Subject.CommonName != "std.example.org" || c.Subject.Organization != "Std Org" || c.Subject.Country != "JP" {
		t.Errorf("subject = %+v", c.Subject)
	}
	if !c.IsCA || c.MaxPathLen != 2 {
		t.Errorf("IsCA=%t MaxPathLen=%d", c.IsCA, c.MaxPathLen)
	}
	if c.SerialNumber.Int64() != 777 {
		t.Errorf("serial = %v", c.SerialNumber)
	}
	if len(c.CRLDistributionPoints) != 1 || c.CRLDistributionPoints[0] != "http://crl.std.org/1.crl" {
		t.Errorf("CRLDP = %v", c.CRLDistributionPoints)
	}
	if len(c.OCSPServers) != 1 {
		t.Errorf("OCSP = %v", c.OCSPServers)
	}
	if !c.IsEV() {
		t.Error("EV policy OID not detected on stdlib cert")
	}
	if err := c.CheckSignatureFrom(c); err != nil {
		t.Errorf("self signature on stdlib cert: %v", err)
	}
}

func TestCreateValidation(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := NewTemplate(big.NewInt(0), Name{CommonName: "x"}, testNotBefore, testNotAfter)
	if _, err := Create(tmpl, nil, key, &key.PublicKey); err == nil {
		t.Error("accepted zero serial")
	}
	tmpl = NewTemplate(big.NewInt(1), Name{CommonName: "x"}, testNotAfter, testNotBefore)
	if _, err := Create(tmpl, nil, key, &key.PublicKey); err == nil {
		t.Error("accepted inverted validity")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	root, _ := newTestCA(t)
	cases := map[string][]byte{
		"empty":          {},
		"not a sequence": der.Int(5),
		"trailing":       append(append([]byte{}, root.Raw...), 0x00),
		"truncated":      root.Raw[:len(root.Raw)-5],
	}
	for name, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("%s: Parse accepted invalid input", name)
		}
	}
}

func TestParseRejectsUnknownCriticalExtension(t *testing.T) {
	// Hand-build a certificate with an unknown critical extension by
	// splicing one into a template build. Easiest: build via stdlib with
	// a custom critical extension.
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "crit"},
		NotBefore:             testNotBefore,
		NotAfter:              testNotAfter,
		BasicConstraintsValid: true,
		SignatureAlgorithm:    x509.ECDSAWithSHA256,
		ExtraExtensions: []pkixExtension{{
			Id:       asn1OID{1, 3, 6, 1, 4, 1, 99999, 1},
			Critical: true,
			Value:    []byte{0x05, 0x00},
		}},
	}
	raw, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(raw); err == nil {
		t.Error("accepted unknown critical extension")
	}
}

func TestNameRendering(t *testing.T) {
	n := Name{CommonName: "CN Value", Organization: "Org", Country: "US"}
	s := n.String()
	if s != "CN=CN Value, O=Org, C=US" {
		t.Errorf("String() = %q", s)
	}
	if (Name{}).String() != "" || !(Name{}).IsZero() {
		t.Error("zero name misbehaves")
	}
}

func TestNameRoundTrip(t *testing.T) {
	n := Name{CommonName: "例示", Organization: "ACME + Co", Country: "DE", OrganizationalUnit: "Unit 7"}
	enc := n.Encode()
	v, _, err := der.Parse(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseName(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("round trip = %+v, want %+v", got, n)
	}
}

func TestPKIXKeyRoundTrip(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	enc := MarshalPKIX(&key.PublicKey)
	got, err := ParsePKIX(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.X.Cmp(key.PublicKey.X) != 0 || got.Y.Cmp(key.PublicKey.Y) != 0 {
		t.Error("key round trip mismatch")
	}
	// Interop: stdlib must parse our SPKI and vice versa.
	stdPub, err := x509.ParsePKIXPublicKey(enc)
	if err != nil {
		t.Fatalf("stdlib rejected our SPKI: %v", err)
	}
	if stdPub.(*ecdsa.PublicKey).X.Cmp(key.PublicKey.X) != 0 {
		t.Error("stdlib decoded different key")
	}
	stdEnc, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdEnc, enc) {
		t.Error("our SPKI differs from stdlib encoding")
	}
}

func TestSignVerifyDigest(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("revocation is a critical component of a PKI")
	sig, err := SignDigest(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDigest(&key.PublicKey, msg, sig); err != nil {
		t.Error(err)
	}
	if err := VerifyDigest(&key.PublicKey, append(msg, '!'), sig); err == nil {
		t.Error("verified tampered message")
	}
}

func TestKeyIDLengthAndStability(t *testing.T) {
	key, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	a, b := KeyID(&key.PublicKey), KeyID(&key.PublicKey)
	if len(a) != 20 || !bytes.Equal(a, b) {
		t.Errorf("KeyID unstable or wrong length: %x vs %x", a, b)
	}
}

// Aliases so the stdlib-interop tests read cleanly.
type asn1OID = asn1.ObjectIdentifier
type pkixExtension = pkix.Extension

// TestParseAllocs pins what Parse allocates for a leaf carrying every
// extension the fleet's CA writes. Each decoded constructed value is one
// allocation of its children and each OID one of its arcs; a decoder
// that grew either slice by appending would add several per value.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	root, rootKey := newTestCA(t)
	leaf, _ := issueLeaf(t, root, rootKey, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse(leaf.Raw); err != nil {
			t.Fatal(err)
		}
	})
	const want = 79 // go1.24, amd64
	if allocs > want {
		t.Errorf("Parse allocated %.0f times, want at most %d", allocs, want)
	}
}

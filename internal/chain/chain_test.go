package chain

import (
	"crypto/ecdsa"
	stdx509 "crypto/x509"
	"math/big"
	"testing"
	"time"

	"repro/internal/x509x"
)

var (
	nb = time.Date(2013, 6, 1, 0, 0, 0, 0, time.UTC)
	na = time.Date(2016, 6, 1, 0, 0, 0, 0, time.UTC)
	at = time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
)

type ident struct {
	cert *x509x.Certificate
	key  *ecdsa.PrivateKey
}

var serialCounter int64 = 1000

func mkCA(t *testing.T, cn string, parent *ident, maxPathLen int) *ident {
	t.Helper()
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	return signCA(t, cn, parent, maxPathLen, key)
}

func signCA(t *testing.T, cn string, parent *ident, maxPathLen int, key *ecdsa.PrivateKey) *ident {
	t.Helper()
	serialCounter++
	tmpl := x509x.NewTemplate(big.NewInt(serialCounter), x509x.Name{CommonName: cn}, nb, na)
	tmpl.IsCA = true
	tmpl.MaxPathLen = maxPathLen
	tmpl.KeyUsage = x509x.KeyUsageCertSign | x509x.KeyUsageCRLSign
	var raw []byte
	var err error
	if parent == nil {
		raw, err = x509x.Create(tmpl, nil, key, &key.PublicKey)
	} else {
		raw, err = x509x.Create(tmpl, parent.cert, parent.key, &key.PublicKey)
	}
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return &ident{cert: cert, key: key}
}

func mkLeaf(t *testing.T, cn string, parent *ident, mutate func(*x509x.Template)) *x509x.Certificate {
	t.Helper()
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serialCounter++
	tmpl := x509x.NewTemplate(big.NewInt(serialCounter), x509x.Name{CommonName: cn}, nb, na)
	tmpl.KeyUsage = x509x.KeyUsageDigitalSignature
	if mutate != nil {
		mutate(tmpl)
	}
	raw, err := x509x.Create(tmpl, parent.cert, parent.key, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

func TestDirectChain(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	leaf := mkLeaf(t, "leaf.example.com", root, nil)
	v := &Verifier{Roots: NewPool(root.cert), Intermediates: NewPool()}
	chains, err := v.Verify(leaf, Options{At: at})
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 || len(chains[0]) != 2 {
		t.Fatalf("chains = %d x %d", len(chains), len(chains[0]))
	}
	if chains[0][0] != leaf || chains[0][1] != root.cert {
		t.Error("chain order wrong")
	}
}

func TestDeepChain(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	int1 := mkCA(t, "Intermediate 1", root, -1)
	int2 := mkCA(t, "Intermediate 2", int1, -1)
	int3 := mkCA(t, "Intermediate 3", int2, -1)
	leaf := mkLeaf(t, "deep.example.com", int3, nil)
	v := &Verifier{
		Roots:         NewPool(root.cert),
		Intermediates: NewPool(int1.cert, int2.cert, int3.cert),
	}
	chains, err := v.Verify(leaf, Options{At: at})
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 || len(chains[0]) != 5 {
		t.Fatalf("got %d chains, first len %d, want 1 x 5", len(chains), len(chains[0]))
	}
}

func TestNoPath(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	stranger := mkCA(t, "Stranger Root", nil, -1)
	leaf := mkLeaf(t, "orphan.example.com", stranger, nil)
	v := &Verifier{Roots: NewPool(root.cert), Intermediates: NewPool()}
	if _, err := v.Verify(leaf, Options{At: at}); err == nil {
		t.Fatal("verified a leaf with no path")
	} else if _, ok := err.(*VerifyError); !ok {
		t.Fatalf("error type %T", err)
	}
}

func TestCrossSignedIntermediateYieldsTwoChains(t *testing.T) {
	rootA := mkCA(t, "Root A", nil, -1)
	rootB := mkCA(t, "Root B", nil, -1)
	// Same intermediate subject and key, signed by both roots.
	intKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	intA := signCA(t, "Cross-Signed CA", rootA, -1, intKey)
	intB := signCA(t, "Cross-Signed CA", rootB, -1, intKey)
	leaf := mkLeaf(t, "cross.example.com", intA, nil)
	v := &Verifier{
		Roots:         NewPool(rootA.cert, rootB.cert),
		Intermediates: NewPool(intA.cert, intB.cert),
	}
	chains, err := v.Verify(leaf, Options{At: at})
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 2 {
		t.Fatalf("cross-signed leaf should have 2 chains, got %d", len(chains))
	}
}

func TestDateChecking(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	leaf := mkLeaf(t, "dated.example.com", root, nil)
	v := &Verifier{Roots: NewPool(root.cert), Intermediates: NewPool()}
	late := na.AddDate(1, 0, 0)
	if _, err := v.Verify(leaf, Options{At: late}); err == nil {
		t.Error("verified an expired leaf without IgnoreDates")
	}
	if _, err := v.Verify(leaf, Options{At: late, IgnoreDates: true}); err != nil {
		t.Errorf("IgnoreDates failed: %v", err)
	}
}

func TestExpiredIntermediateSkipped(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serialCounter++
	tmpl := x509x.NewTemplate(big.NewInt(serialCounter), x509x.Name{CommonName: "Expired Int"}, nb, nb.AddDate(0, 1, 0))
	tmpl.IsCA = true
	tmpl.MaxPathLen = -1
	tmpl.KeyUsage = x509x.KeyUsageCertSign
	raw, err := x509x.Create(tmpl, root.cert, root.key, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	expInt, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	leaf := mkLeaf(t, "under-expired.example.com", &ident{cert: expInt, key: key}, nil)
	v := &Verifier{Roots: NewPool(root.cert), Intermediates: NewPool(expInt)}
	if _, err := v.Verify(leaf, Options{At: at}); err == nil {
		t.Error("verified through an expired intermediate")
	}
	if _, err := v.Verify(leaf, Options{IgnoreDates: true}); err != nil {
		t.Errorf("IgnoreDates should allow it: %v", err)
	}
}

func TestNonCAIntermediateRejected(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	// A leaf that tries to act as a CA.
	fakeKey, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	fakeCA := mkLeaf(t, "Fake CA", root, nil)
	leaf := mkLeaf(t, "victim.example.com", &ident{cert: fakeCA, key: fakeKey}, nil)
	v := &Verifier{Roots: NewPool(root.cert), Intermediates: NewPool(fakeCA)}
	if _, err := v.Verify(leaf, Options{At: at}); err == nil {
		t.Error("verified through a non-CA certificate")
	}
}

func TestPathLenConstraint(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	limited := mkCA(t, "Limited", root, 0) // can sign leaves only
	sub := mkCA(t, "Sub", limited, -1)
	leaf := mkLeaf(t, "too-deep.example.com", sub, nil)
	v := &Verifier{Roots: NewPool(root.cert), Intermediates: NewPool(limited.cert, sub.cert)}
	if _, err := v.Verify(leaf, Options{At: at}); err == nil {
		t.Error("verified chain that violates pathLenConstraint")
	}
	direct := mkLeaf(t, "ok.example.com", limited, nil)
	if _, err := v.Verify(direct, Options{At: at}); err != nil {
		t.Errorf("leaf directly under limited CA should verify: %v", err)
	}
}

func TestCrossSignLoopTerminates(t *testing.T) {
	// A and B mutually cross-sign each other; path building must not
	// loop forever.
	root := mkCA(t, "Root", nil, -1)
	keyA, _ := x509x.GenerateKey()
	keyB, _ := x509x.GenerateKey()
	a1 := signCA(t, "Loop A", root, -1, keyA)
	b1 := signCA(t, "Loop B", &ident{cert: a1.cert, key: keyA}, -1, keyB)
	a2 := signCA(t, "Loop A", &ident{cert: b1.cert, key: keyB}, -1, keyA)
	leaf := mkLeaf(t, "loop.example.com", &ident{cert: a2.cert, key: keyA}, nil)
	v := &Verifier{
		Roots:         NewPool(root.cert),
		Intermediates: NewPool(a1.cert, b1.cert, a2.cert),
	}
	chains, err := v.Verify(leaf, Options{At: at})
	if err != nil {
		t.Fatalf("loop chain: %v", err)
	}
	if len(chains) == 0 {
		t.Fatal("no chains found")
	}
}

func TestNoRootsConfigured(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	leaf := mkLeaf(t, "x.example.com", root, nil)
	v := &Verifier{Roots: NewPool()}
	if _, err := v.Verify(leaf, Options{At: at}); err == nil {
		t.Error("verified with empty root pool")
	}
}

func TestDiscoverIntermediates(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	int1 := mkCA(t, "I1", root, -1)
	int2 := mkCA(t, "I2", int1, -1) // only verifiable once int1 admitted
	int3 := mkCA(t, "I3", int2, -1) // needs two rounds
	orphanRoot := mkCA(t, "Orphan Root", nil, -1)
	orphan := mkCA(t, "Orphan Int", orphanRoot, -1)
	leafish := mkLeaf(t, "not-a-ca.example.com", root, nil)

	// Feed candidates in worst-case order to force iteration.
	candidates := []*x509x.Certificate{int3.cert, int2.cert, int1.cert, orphan.cert, leafish, root.cert}
	admitted := DiscoverIntermediates(NewPool(root.cert), candidates, Options{IgnoreDates: true})
	if admitted.Len() != 3 {
		t.Fatalf("admitted %d intermediates, want 3", admitted.Len())
	}
	for _, want := range []*x509x.Certificate{int1.cert, int2.cert, int3.cert} {
		if !admitted.Contains(want) {
			t.Errorf("missing %q", want.Subject)
		}
	}
	if admitted.Contains(orphan.cert) || admitted.Contains(leafish) || admitted.Contains(root.cert) {
		t.Error("admitted a certificate that should be excluded")
	}
}

func TestPoolDeduplication(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	p := NewPool(root.cert, root.cert)
	if p.Len() != 1 {
		t.Errorf("pool len = %d after duplicate add", p.Len())
	}
	if got := p.FindBySubject(root.cert.RawSubject); len(got) != 1 {
		t.Errorf("FindBySubject = %d", len(got))
	}
	if got := p.FindBySubject([]byte("nobody")); got != nil {
		t.Errorf("FindBySubject(nobody) = %v", got)
	}
}

func TestNameConstraints(t *testing.T) {
	root := mkCA(t, "Root", nil, -1)
	// A constrained intermediate: may only issue under example.com,
	// never under secret.example.com.
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serialCounter++
	tmpl := x509x.NewTemplate(big.NewInt(serialCounter), x509x.Name{CommonName: "Constrained CA"}, nb, na)
	tmpl.IsCA = true
	tmpl.MaxPathLen = -1
	tmpl.KeyUsage = x509x.KeyUsageCertSign
	tmpl.PermittedDNSDomains = []string{"example.com"}
	tmpl.ExcludedDNSDomains = []string{"secret.example.com"}
	raw, err := x509x.Create(tmpl, root.cert, root.key, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := x509x.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(constrained.PermittedDNSDomains) != 1 || constrained.PermittedDNSDomains[0] != "example.com" {
		t.Fatalf("permitted = %v", constrained.PermittedDNSDomains)
	}
	if len(constrained.ExcludedDNSDomains) != 1 {
		t.Fatalf("excluded = %v", constrained.ExcludedDNSDomains)
	}
	ca := &ident{cert: constrained, key: key}

	inside := mkLeaf(t, "www.example.com", ca, func(tmpl *x509x.Template) {
		tmpl.DNSNames = []string{"www.example.com"}
	})
	outside := mkLeaf(t, "www.other.org", ca, func(tmpl *x509x.Template) {
		tmpl.DNSNames = []string{"www.other.org"}
	})
	excluded := mkLeaf(t, "x.secret.example.com", ca, func(tmpl *x509x.Template) {
		tmpl.DNSNames = []string{"x.secret.example.com"}
	})

	v := &Verifier{Roots: NewPool(root.cert), Intermediates: NewPool(constrained)}
	enforce := Options{At: at, EnforceNameConstraints: true}

	if _, err := v.Verify(inside, enforce); err != nil {
		t.Errorf("in-scope leaf rejected: %v", err)
	}
	if _, err := v.Verify(outside, enforce); err == nil {
		t.Error("out-of-scope leaf verified despite name constraints")
	}
	if _, err := v.Verify(excluded, enforce); err == nil {
		t.Error("excluded-subtree leaf verified")
	}
	// The paper's observation: few clients enforce constraints — without
	// the option, the out-of-scope leaf passes.
	if _, err := v.Verify(outside, Options{At: at}); err != nil {
		t.Errorf("non-enforcing verification should pass: %v", err)
	}
}

func TestNameConstraintsStdlibInterop(t *testing.T) {
	// The stdlib must parse and enforce our Name Constraints encoding.
	root := mkCA(t, "NC Root", nil, -1)
	key, err := x509x.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	serialCounter++
	tmpl := x509x.NewTemplate(big.NewInt(serialCounter), x509x.Name{CommonName: "NC CA"}, nb, na)
	tmpl.IsCA = true
	tmpl.MaxPathLen = -1
	tmpl.KeyUsage = x509x.KeyUsageCertSign
	tmpl.PermittedDNSDomains = []string{"example.com"}
	raw, err := x509x.Create(tmpl, root.cert, root.key, &key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	std, err := stdx509.ParseCertificate(raw)
	if err != nil {
		t.Fatalf("stdlib rejected our name constraints: %v", err)
	}
	if len(std.PermittedDNSDomains) != 1 || std.PermittedDNSDomains[0] != "example.com" {
		t.Fatalf("stdlib permitted = %v", std.PermittedDNSDomains)
	}
	if !std.PermittedDNSDomainsCritical {
		t.Error("constraint should be critical")
	}
}

func TestDNSMatchRules(t *testing.T) {
	cases := []struct {
		name, constraint string
		want             bool
	}{
		{"example.com", "example.com", true},
		{"www.example.com", "example.com", true},
		{"example.com.evil.org", "example.com", false},
		{"badexample.com", "example.com", false},
		{"www.example.com", ".example.com", true},
		{"example.com", ".example.com", false},
		{"anything", "", true},
	}
	for _, c := range cases {
		if got := dnsMatches(c.name, c.constraint); got != c.want {
			t.Errorf("dnsMatches(%q, %q) = %t", c.name, c.constraint, got)
		}
	}
}
